//! # Marion — retargetable instruction scheduling for RISCs
//!
//! A reproduction of *"The Marion System for Retargetable Instruction
//! Scheduling"* (Bradlee, Henry & Eggers, PLDI 1991). This facade
//! crate re-exports the workspace members:
//!
//! * [`maril`] — the Maril machine description language and its code
//!   generator generator;
//! * [`ir`] — the lcc-style typed intermediate language;
//! * [`frontend`] — a C-subset front end producing [`ir`] modules;
//! * [`backend`] — the target- and strategy-independent back end
//!   (selection, code DAG, scheduling, register allocation, the
//!   Postpass / IPS / RASE strategies);
//! * [`machines`] — ready-made descriptions of TOYP, the MIPS R2000,
//!   the Motorola 88000 and the Intel i860;
//! * [`sim`] — a pipeline-accurate simulator used to measure actual
//!   execution cycles of generated code;
//! * [`workloads`] — the Livermore loops and compile-suite programs
//!   used by the paper's evaluation;
//! * [`rng`] — the workspace's one SplitMix64, behind every seeded
//!   generator and randomized test;
//! * [`trace`] — zero-dependency span/counter/event collection wired
//!   through the whole pipeline (see `CompileOptions::trace`);
//! * [`cache`] — the content-addressed compile cache's storage layer
//!   (stable hashing, sharded LRU, checksummed disk store) used by
//!   `CompileOptions::cache` and the `marion-serve` daemon.
//!
//! ```
//! use marion::backend::{Compiler, StrategyKind};
//! use marion::sim::{run_program, SimConfig, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = marion::frontend::compile(
//!     "int main() { int i, s = 0; for (i = 1; i <= 100; i++) s += i; return s; }",
//! )?;
//! let spec = marion::machines::load("r2000");
//! let compiler = Compiler::new(spec.machine.clone(), spec.escapes, StrategyKind::Ips);
//! let program = compiler.compile_module(&module)?;
//! let run = run_program(&spec.machine, &program, "main", &[],
//!                       Some(marion::maril::Ty::Int), &SimConfig::default())?;
//! assert_eq!(run.result, Some(Value::I(5050)));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for a guided tour.

pub use marion_cache as cache;
pub use marion_core as backend;
pub use marion_frontend as frontend;
pub use marion_ir as ir;
pub use marion_machines as machines;
pub use marion_maril as maril;
pub use marion_rng as rng;
pub use marion_sim as sim;
pub use marion_trace as trace;
pub use marion_workloads as workloads;
