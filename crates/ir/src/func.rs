//! Functions, basic blocks, statements and the value-node arena.

use crate::module::SymbolId;
use marion_maril::{BinOp, Ty, UnOp};
use std::fmt;
use std::hash::{Hash, Hasher};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_type!(
    /// A value node in the function's arena.
    NodeId,
    "n"
);
id_type!(
    /// A basic block.
    BlockId,
    "b"
);
id_type!(
    /// A pseudo-register: a scalar value that may live in a machine
    /// register and can span basic blocks.
    VregId,
    "v"
);
id_type!(
    /// A frame-allocated local (array or address-taken scalar).
    LocalId,
    "l"
);

/// A pure value node. Effectful operations (stores, calls, vreg
/// updates) are [`Stmt`]s, keeping nodes shareable: a node referenced
/// by more than one parent is a local common subexpression.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Integer constant.
    ConstI(i64),
    /// Floating constant.
    ConstF(f64),
    /// Read a pseudo-register.
    ReadVreg(VregId),
    /// Address of a global symbol.
    GlobalAddr(SymbolId),
    /// Address of a frame local.
    LocalAddr(LocalId),
    /// Load from memory; the node's type gives the access width.
    Load(NodeId),
    /// Binary arithmetic (`BinOp::Cmp` and relationals only appear in
    /// terminators and glue output, never in front-end trees).
    Bin(BinOp, NodeId, NodeId),
    /// Unary arithmetic.
    Un(UnOp, NodeId),
    /// Type conversion to this node's type.
    Cvt(NodeId),
    /// A call producing this node's type. Argument order is source
    /// order. Calls used only for effect appear under
    /// [`Stmt::CallStmt`].
    Call(SymbolId, Vec<NodeId>),
}

/// Written out only because `f64` has no `Hash`: a float constant
/// hashes by its bit pattern, so `0.0` and `-0.0` (equal under `==`,
/// but different code) get different cache keys. `NodeKind` is not
/// `Eq`, so no hash map relies on `==` agreeing with this.
impl Hash for NodeKind {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            NodeKind::ConstI(v) => v.hash(h),
            NodeKind::ConstF(v) => v.to_bits().hash(h),
            NodeKind::ReadVreg(v) => v.hash(h),
            NodeKind::GlobalAddr(s) => s.hash(h),
            NodeKind::LocalAddr(l) => l.hash(h),
            NodeKind::Load(a) | NodeKind::Cvt(a) => a.hash(h),
            NodeKind::Bin(op, a, b) => (op, a, b).hash(h),
            NodeKind::Un(op, a) => (op, a).hash(h),
            NodeKind::Call(s, args) => (s, args).hash(h),
        }
    }
}

/// A typed value node.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Node {
    /// The operation.
    pub kind: NodeKind,
    /// The type of the produced value.
    pub ty: Ty,
}

/// An effectful statement, executed in order within a block.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// `v = node` — write a pseudo-register.
    SetVreg(VregId, NodeId),
    /// `*(addr) = value`, with the access width of `ty`.
    Store {
        /// Address expression.
        addr: NodeId,
        /// Value stored.
        value: NodeId,
        /// Access type.
        ty: Ty,
    },
    /// Evaluate a call node for its effects (result discarded or
    /// `void`).
    CallStmt(NodeId),
}

/// Block-ending control flow.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `lhs REL rhs`.
    CondJump {
        /// The relation (one of the six relational [`BinOp`]s).
        rel: BinOp,
        /// Left operand.
        lhs: NodeId,
        /// Right operand.
        rhs: NodeId,
        /// Target when the relation holds.
        then_to: BlockId,
        /// Target when it does not.
        else_to: BlockId,
    },
    /// Return, with an optional value.
    Ret(Option<NodeId>),
}

impl Terminator {
    /// Successor blocks, in branch order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::CondJump {
                then_to, else_to, ..
            } => vec![*then_to, *else_to],
            Terminator::Ret(_) => vec![],
        }
    }
}

/// A basic block: ordered statements plus a terminator.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Block {
    /// Effectful statements in execution order.
    pub stmts: Vec<Stmt>,
    /// The block terminator.
    pub term: Terminator,
}

/// A frame-allocated object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Local {
    /// Source-level name (for diagnostics).
    pub name: String,
    /// Size in bytes.
    pub size: u32,
}

/// A function: parameters, pseudo-register types, frame locals, blocks
/// and the shared node arena.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters as (pseudo-register, type), in order. On entry each
    /// parameter's value is in its pseudo-register.
    pub params: Vec<(VregId, Ty)>,
    /// Return type; `None` for `void`.
    pub ret_ty: Option<Ty>,
    /// Type of every pseudo-register (indexed by [`VregId`]).
    pub vreg_tys: Vec<Ty>,
    /// Frame locals (indexed by [`LocalId`]).
    pub locals: Vec<Local>,
    /// Basic blocks (indexed by [`BlockId`]); block 0 is the entry.
    pub blocks: Vec<Block>,
    /// The value-node arena (indexed by [`NodeId`]).
    pub nodes: Vec<Node>,
}

impl Function {
    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// The type of a pseudo-register.
    pub fn vreg_ty(&self, v: VregId) -> Ty {
        self.vreg_tys[v.0 as usize]
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Total frame size of the declared locals, 8-byte aligned each.
    pub fn frame_locals_size(&self) -> u32 {
        self.locals.iter().map(|l| (l.size + 7) & !7).sum()
    }

    /// Byte offset of a local within the locals area.
    pub fn local_offset(&self, id: LocalId) -> u32 {
        self.locals[..id.0 as usize]
            .iter()
            .map(|l| (l.size + 7) & !7)
            .sum()
    }

    /// Counts, for every node, how many parents reference it within
    /// statements, terminators and other nodes. Used by the selector:
    /// a node with more than one parent is a local common
    /// subexpression and is forced into a register (paper §2.1).
    pub fn parent_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        let mut bump = |id: NodeId| counts[id.0 as usize] += 1;
        for node in &self.nodes {
            match &node.kind {
                NodeKind::Load(a) | NodeKind::Un(_, a) | NodeKind::Cvt(a) => bump(*a),
                NodeKind::Bin(_, a, b) => {
                    bump(*a);
                    bump(*b);
                }
                NodeKind::Call(_, args) => args.iter().copied().for_each(&mut bump),
                _ => {}
            }
        }
        for block in &self.blocks {
            for stmt in &block.stmts {
                match stmt {
                    Stmt::SetVreg(_, n) | Stmt::CallStmt(n) => bump(*n),
                    Stmt::Store { addr, value, .. } => {
                        bump(*addr);
                        bump(*value);
                    }
                }
            }
            match &block.term {
                Terminator::CondJump { lhs, rhs, .. } => {
                    bump(*lhs);
                    bump(*rhs);
                }
                Terminator::Ret(Some(n)) => bump(*n),
                _ => {}
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Function {
        // v0 = 1 + 2; return v0
        let nodes = vec![
            Node {
                kind: NodeKind::ConstI(1),
                ty: Ty::Int,
            },
            Node {
                kind: NodeKind::ConstI(2),
                ty: Ty::Int,
            },
            Node {
                kind: NodeKind::Bin(BinOp::Add, NodeId(0), NodeId(1)),
                ty: Ty::Int,
            },
            Node {
                kind: NodeKind::ReadVreg(VregId(0)),
                ty: Ty::Int,
            },
        ];
        Function {
            name: "tiny".into(),
            params: vec![],
            ret_ty: Some(Ty::Int),
            vreg_tys: vec![Ty::Int],
            locals: vec![],
            blocks: vec![Block {
                stmts: vec![Stmt::SetVreg(VregId(0), NodeId(2))],
                term: Terminator::Ret(Some(NodeId(3))),
            }],
            nodes,
        }
    }

    #[test]
    fn parent_counts_cover_stmts_and_terms() {
        let f = tiny();
        let counts = f.parent_counts();
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert!(Terminator::Ret(None).successors().is_empty());
        let cj = Terminator::CondJump {
            rel: BinOp::Lt,
            lhs: NodeId(0),
            rhs: NodeId(1),
            then_to: BlockId(1),
            else_to: BlockId(2),
        };
        assert_eq!(cj.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn frame_layout_is_aligned() {
        let mut f = tiny();
        f.locals.push(Local {
            name: "a".into(),
            size: 12,
        });
        f.locals.push(Local {
            name: "b".into(),
            size: 8,
        });
        assert_eq!(f.local_offset(LocalId(0)), 0);
        assert_eq!(f.local_offset(LocalId(1)), 16);
        assert_eq!(f.frame_locals_size(), 24);
    }
}
