//! Incremental construction of [`Function`]s with local CSE.
//!
//! The builder hash-conses pure value nodes *within the current basic
//! block*, so repeated subexpressions share one node — which the
//! selector later forces into a register, matching the paper's
//! treatment of local common subexpressions. `Load` nodes are shared
//! too, but the load cache is invalidated by stores and calls.

use crate::func::*;
use crate::module::SymbolId;
use marion_maril::{BinOp, Ty, UnOp};
use std::collections::HashMap;

/// Builds one [`Function`]. Create with [`FuncBuilder::new`], add
/// blocks and statements, then [`FuncBuilder::finish`].
#[derive(Debug)]
pub struct FuncBuilder {
    func: Function,
    current: BlockId,
    cse: HashMap<CseKey, NodeId>,
    load_cache: Vec<NodeId>,
    sealed: Vec<bool>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CseKey {
    ConstI(i64, Ty),
    ConstF(u64, Ty),
    ReadVreg(VregId),
    GlobalAddr(SymbolId),
    LocalAddr(LocalId),
    Load(NodeId, Ty),
    Bin(BinOp, NodeId, NodeId, Ty),
    Un(UnOp, NodeId, Ty),
    Cvt(NodeId, Ty),
}

impl FuncBuilder {
    /// Starts a function with the given name and return type; the
    /// entry block is current.
    pub fn new(name: &str, ret_ty: Option<Ty>) -> FuncBuilder {
        FuncBuilder {
            func: Function {
                name: name.to_owned(),
                params: vec![],
                ret_ty,
                vreg_tys: vec![],
                locals: vec![],
                blocks: vec![Block {
                    stmts: vec![],
                    term: Terminator::Ret(None),
                }],
                nodes: vec![],
            },
            current: BlockId(0),
            cse: HashMap::new(),
            load_cache: Vec::new(),
            sealed: vec![false],
        }
    }

    /// Declares a parameter; its value arrives in the returned
    /// pseudo-register.
    pub fn param(&mut self, ty: Ty) -> VregId {
        let v = self.new_vreg(ty);
        self.func.params.push((v, ty));
        v
    }

    /// Allocates a fresh pseudo-register of type `ty`.
    pub fn new_vreg(&mut self, ty: Ty) -> VregId {
        self.func.vreg_tys.push(ty);
        VregId(self.func.vreg_tys.len() as u32 - 1)
    }

    /// Allocates a frame local of `size` bytes.
    pub fn new_local(&mut self, name: &str, size: u32) -> LocalId {
        self.func.locals.push(Local {
            name: name.to_owned(),
            size,
        });
        LocalId(self.func.locals.len() as u32 - 1)
    }

    /// Creates a new (empty) block and returns its id. Does not switch
    /// to it.
    pub fn new_block(&mut self) -> BlockId {
        self.func.blocks.push(Block {
            stmts: vec![],
            term: Terminator::Ret(None),
        });
        self.sealed.push(false);
        BlockId(self.func.blocks.len() as u32 - 1)
    }

    /// Makes `block` the insertion point. Clears the CSE scope: value
    /// sharing is local to a block.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
        self.cse.clear();
        self.load_cache.clear();
    }

    fn intern(&mut self, key: CseKey, kind: NodeKind, ty: Ty) -> NodeId {
        if let Some(id) = self.cse.get(&key) {
            return *id;
        }
        self.func.nodes.push(Node { kind, ty });
        let id = NodeId(self.func.nodes.len() as u32 - 1);
        self.cse.insert(key, id);
        id
    }

    /// Integer constant node.
    pub fn const_i(&mut self, v: i64, ty: Ty) -> NodeId {
        self.intern(CseKey::ConstI(v, ty), NodeKind::ConstI(v), ty)
    }

    /// Floating constant node.
    pub fn const_f(&mut self, v: f64, ty: Ty) -> NodeId {
        self.intern(CseKey::ConstF(v.to_bits(), ty), NodeKind::ConstF(v), ty)
    }

    /// Pseudo-register read.
    pub fn read_vreg(&mut self, v: VregId) -> NodeId {
        let ty = self.func.vreg_ty(v);
        self.intern(CseKey::ReadVreg(v), NodeKind::ReadVreg(v), ty)
    }

    /// Address of a global.
    pub fn global_addr(&mut self, sym: SymbolId) -> NodeId {
        self.intern(CseKey::GlobalAddr(sym), NodeKind::GlobalAddr(sym), Ty::Ptr)
    }

    /// Address of a frame local.
    pub fn local_addr(&mut self, local: LocalId) -> NodeId {
        self.intern(
            CseKey::LocalAddr(local),
            NodeKind::LocalAddr(local),
            Ty::Ptr,
        )
    }

    /// Memory load of type `ty` from `addr`.
    pub fn load(&mut self, addr: NodeId, ty: Ty) -> NodeId {
        let id = self.intern(CseKey::Load(addr, ty), NodeKind::Load(addr), ty);
        if !self.load_cache.contains(&id) {
            self.load_cache.push(id);
        }
        id
    }

    /// Binary operation of type `ty`.
    pub fn bin(&mut self, op: BinOp, a: NodeId, b: NodeId, ty: Ty) -> NodeId {
        self.intern(CseKey::Bin(op, a, b, ty), NodeKind::Bin(op, a, b), ty)
    }

    /// Unary operation of type `ty`.
    pub fn un(&mut self, op: UnOp, a: NodeId, ty: Ty) -> NodeId {
        self.intern(CseKey::Un(op, a, ty), NodeKind::Un(op, a), ty)
    }

    /// Conversion of `a` to `ty`.
    pub fn cvt(&mut self, a: NodeId, ty: Ty) -> NodeId {
        if self.func.node(a).ty == ty {
            return a;
        }
        self.intern(CseKey::Cvt(a, ty), NodeKind::Cvt(a), ty)
    }

    /// A call producing a value of type `ty`. Calls are never CSE'd.
    pub fn call(&mut self, sym: SymbolId, args: Vec<NodeId>, ty: Ty) -> NodeId {
        self.func.nodes.push(Node {
            kind: NodeKind::Call(sym, args),
            ty,
        });
        self.invalidate_loads();
        NodeId(self.func.nodes.len() as u32 - 1)
    }

    fn invalidate_loads(&mut self) {
        for id in self.load_cache.drain(..) {
            self.cse.retain(|_, v| *v != id);
        }
    }

    /// Appends `v = node`.
    pub fn set_vreg(&mut self, v: VregId, value: NodeId) {
        // A later read of `v` must not reuse a node created before
        // this write.
        self.cse.remove(&CseKey::ReadVreg(v));
        self.func.blocks[self.current.0 as usize]
            .stmts
            .push(Stmt::SetVreg(v, value));
    }

    /// Appends a store; conservatively invalidates all cached loads.
    pub fn store(&mut self, addr: NodeId, value: NodeId, ty: Ty) {
        self.invalidate_loads();
        self.func.blocks[self.current.0 as usize]
            .stmts
            .push(Stmt::Store { addr, value, ty });
    }

    /// Appends a call-for-effect statement.
    pub fn call_stmt(&mut self, call: NodeId) {
        self.func.blocks[self.current.0 as usize]
            .stmts
            .push(Stmt::CallStmt(call));
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, to: BlockId) {
        self.seal(Terminator::Jump(to));
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_jump(
        &mut self,
        rel: BinOp,
        lhs: NodeId,
        rhs: NodeId,
        then_to: BlockId,
        else_to: BlockId,
    ) {
        assert!(rel.is_relational(), "cond_jump needs a relational op");
        self.seal(Terminator::CondJump {
            rel,
            lhs,
            rhs,
            then_to,
            else_to,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<NodeId>) {
        self.seal(Terminator::Ret(value));
    }

    fn seal(&mut self, term: Terminator) {
        let cur = self.current.0 as usize;
        assert!(!self.sealed[cur], "block {cur} terminated twice");
        self.func.blocks[cur].term = term;
        self.sealed[cur] = true;
    }

    /// Whether the current block already has a terminator.
    pub fn is_sealed(&self) -> bool {
        self.sealed[self.current.0 as usize]
    }

    /// Finishes construction. Unsealed blocks keep their default
    /// `Ret(None)` terminator.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Read-only access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cse_shares_pure_nodes_within_block() {
        let mut b = FuncBuilder::new("f", Some(Ty::Int));
        let v = b.new_vreg(Ty::Int);
        let x1 = b.read_vreg(v);
        let c = b.const_i(4, Ty::Int);
        let a1 = b.bin(BinOp::Add, x1, c, Ty::Int);
        let x2 = b.read_vreg(v);
        let c2 = b.const_i(4, Ty::Int);
        let a2 = b.bin(BinOp::Add, x2, c2, Ty::Int);
        assert_eq!(x1, x2);
        assert_eq!(c, c2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn cse_reset_across_blocks() {
        let mut b = FuncBuilder::new("f", None);
        let c1 = b.const_i(7, Ty::Int);
        let blk = b.new_block();
        b.jump(blk);
        b.switch_to(blk);
        let c2 = b.const_i(7, Ty::Int);
        assert_ne!(c1, c2);
    }

    #[test]
    fn store_invalidates_load_cache() {
        let mut b = FuncBuilder::new("f", None);
        let g = b.global_addr(SymbolId(0));
        let l1 = b.load(g, Ty::Int);
        let l1b = b.load(g, Ty::Int);
        assert_eq!(l1, l1b);
        let val = b.const_i(1, Ty::Int);
        b.store(g, val, Ty::Int);
        let l2 = b.load(g, Ty::Int);
        assert_ne!(l1, l2, "load across store must not be shared");
    }

    #[test]
    fn set_vreg_invalidates_read() {
        let mut b = FuncBuilder::new("f", None);
        let v = b.new_vreg(Ty::Int);
        let r1 = b.read_vreg(v);
        let c = b.const_i(5, Ty::Int);
        b.set_vreg(v, c);
        let r2 = b.read_vreg(v);
        assert_ne!(r1, r2);
    }

    #[test]
    fn cvt_to_same_type_is_identity() {
        let mut b = FuncBuilder::new("f", None);
        let c = b.const_i(3, Ty::Int);
        assert_eq!(b.cvt(c, Ty::Int), c);
        assert_ne!(b.cvt(c, Ty::Double), c);
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut b = FuncBuilder::new("f", None);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    fn call_not_csed_and_invalidates_loads() {
        let mut b = FuncBuilder::new("f", None);
        let g = b.global_addr(SymbolId(0));
        let l1 = b.load(g, Ty::Int);
        let c1 = b.call(SymbolId(1), vec![], Ty::Int);
        let c2 = b.call(SymbolId(1), vec![], Ty::Int);
        assert_ne!(c1, c2);
        let l2 = b.load(g, Ty::Int);
        assert_ne!(l1, l2);
    }
}
