//! # marion-core — the retargetable back end
//!
//! The target- and strategy-independent portion of Marion (the
//! paper's "TSI"): glue transformation, instruction selection, code
//! DAG construction, list scheduling with temporal scheduling, graph
//! coloring register allocation, the three code generation strategies
//! (Postpass, IPS, RASE), and assembly emission.
//!
//! The entry point is [`driver::Compiler`], which binds a compiled
//! Maril [`marion_maril::Machine`], an [`select::EscapeRegistry`] of
//! `*func` escapes, and a [`strategy::StrategyKind`].

pub mod code;
pub mod dag;
pub mod dense;
pub mod driver;
pub mod emit;
pub mod error;
pub mod explain;
pub mod fcache;
pub mod glue;
pub mod quality;
pub mod regalloc;
pub mod sched;
pub mod select;
pub mod strategy;

pub use code::{CodeBlock, CodeFunc, ImmVal, Inst, Operand, Vreg, VregInfo, VregKind};
pub use driver::{
    CompileOptions, CompileStats, CompiledFunc, CompiledProgram, Compiler, FuncStats,
};
pub use emit::{AsmBlock, AsmFunc, AsmInst, AsmProgram, AsmWord};
pub use error::{CodegenError, Phase};
pub use explain::{
    audit_schedule, audited_replay, AuditError, PlacementRecord, ScheduleExplanation, Stall,
    StallReason,
};
pub use fcache::{CacheLoad, CacheSummary, CachedFunc, CodeFootprint, FuncCache};
pub use quality::{BlockQuality, ProgramQuality, QualityRecord, StallBreakdown};
pub use select::{select_func, EscapeCtx, EscapeFn, EscapeRegistry};
pub use strategy::StrategyKind;
