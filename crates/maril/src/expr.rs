//! Semantic expressions.
//!
//! Each `%instr` directive carries a single-assignment C expression
//! (the paper's third directive part) describing what the instruction
//! computes, e.g. `{$1 = $2 + $3;}` or `{if ($1 == 0) goto $2;}`. The
//! selector derives tree patterns from these expressions, the code DAG
//! builder derives def/use sets, and the simulator evaluates them.

use std::fmt;

/// Binary operators usable in semantic expressions and glue rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `::` — the generic compare, producing a condition value
    Cmp,
    /// `==` producing 0/1
    Eq,
    /// `!=` producing 0/1
    Ne,
    /// `<` producing 0/1
    Lt,
    /// `<=` producing 0/1
    Le,
    /// `>` producing 0/1
    Gt,
    /// `>=` producing 0/1
    Ge,
}

impl BinOp {
    /// True for the six relational operators (and not `::`).
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The relation with operand order swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }

    /// The logically negated relation (`a < b` ⇔ `!(a >= b)`).
    pub fn negated(self) -> BinOp {
        match self {
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            other => other,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Cmp => "::",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
        })
    }
}

/// Built-in functions usable inside semantic expressions and glue
/// transformations (paper §3.3: `high`, `low`, `eval` and datatype
/// conversions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// Upper 16 bits of a 32-bit immediate.
    High,
    /// Lower 16 bits of a 32-bit immediate.
    Low,
    /// Constant-fold the argument (glue transformations only).
    Eval,
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Builtin::High => "high",
            Builtin::Low => "low",
            Builtin::Eval => "eval",
        })
    }
}

/// A semantic expression tree.
///
/// `Operand(k)` refers to the instruction's `$k` (1-based, as in the
/// paper). `Temporal(name)` names a temporal register (a latch of an
/// explicitly advanced pipeline). `Mem` is a memory-bank access.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// `$k` — 1-based reference to the instruction's k-th operand.
    Operand(u8),
    /// Integer literal.
    Int(i64),
    /// A temporal register such as `m1` (i860 multiply-pipe latch).
    Temporal(String),
    /// Memory access `m[addr]` on the named memory bank.
    Mem(String, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Built-in application, e.g. `high($2)`.
    Call(Builtin, Box<Expr>),
    /// Datatype conversion used as a built-in, e.g. `(double)$2`.
    Convert(crate::machine::Ty, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Visits every node of the tree, pre-order.
    pub fn walk(&self, visit: &mut dyn FnMut(&Expr)) {
        visit(self);
        match self {
            Expr::Mem(_, addr) => addr.walk(visit),
            Expr::Bin(_, lhs, rhs) => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::Un(_, inner) | Expr::Call(_, inner) | Expr::Convert(_, inner) => {
                inner.walk(visit);
            }
            Expr::Operand(_) | Expr::Int(_) | Expr::Temporal(_) => {}
        }
    }

    /// Collects the operand indices referenced anywhere in the tree.
    pub fn operand_refs(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Operand(k) = e {
                if !out.contains(k) {
                    out.push(*k);
                }
            }
        });
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Operand(k) => write!(f, "${k}"),
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Temporal(name) => f.write_str(name),
            Expr::Mem(bank, addr) => write!(f, "{bank}[{addr}]"),
            Expr::Bin(op, lhs, rhs) => write!(f, "({lhs} {op} {rhs})"),
            Expr::Un(op, inner) => write!(f, "{op}{inner}"),
            Expr::Call(b, arg) => write!(f, "{b}({arg})"),
            Expr::Convert(ty, arg) => write!(f, "({ty}){arg}"),
        }
    }
}

/// The destination of an assignment.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum LValue {
    /// `$k = ...`
    Operand(u8),
    /// `m1 = ...` — write a temporal register.
    Temporal(String),
    /// `m[addr] = ...` — store to a memory bank.
    Mem(String, Expr),
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LValue::Operand(k) => write!(f, "${k}"),
            LValue::Temporal(name) => f.write_str(name),
            LValue::Mem(bank, addr) => write!(f, "{bank}[{addr}]"),
        }
    }
}

/// A statement inside an instruction's semantic braces.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// `$1 = expr;` / `m1 = expr;` / `m[a] = expr;`
    Assign(LValue, Expr),
    /// `if (lhs REL rhs) goto $k;` — conditional branch.
    CondGoto {
        /// The relation tested (one of the six relational operators).
        rel: BinOp,
        /// Left comparison operand.
        lhs: Expr,
        /// Right comparison operand.
        rhs: Expr,
        /// The `$k` label operand jumped to.
        target: u8,
    },
    /// `goto $k;` — unconditional branch.
    Goto(u8),
    /// `call $k;` — procedure call to a label operand.
    Call(u8),
    /// `return;` — return from the current procedure.
    Return,
    /// An empty body `{}` (pure escapes / pipeline advances only).
    Nop,
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Assign(lv, e) => write!(f, "{lv} = {e};"),
            Stmt::CondGoto {
                rel,
                lhs,
                rhs,
                target,
            } => write!(f, "if ({lhs} {rel} {rhs}) goto ${target};"),
            Stmt::Goto(k) => write!(f, "goto ${k};"),
            Stmt::Call(k) => write!(f, "call ${k};"),
            Stmt::Return => f.write_str("return;"),
            Stmt::Nop => f.write_str(";"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_refs_deduplicates() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Operand(2),
            Expr::bin(BinOp::Mul, Expr::Operand(3), Expr::Operand(2)),
        );
        assert_eq!(e.operand_refs(), vec![2, 3]);
    }

    #[test]
    fn display_round_trip_shape() {
        let e = Expr::Mem(
            "m".into(),
            Box::new(Expr::bin(BinOp::Add, Expr::Operand(2), Expr::Operand(3))),
        );
        assert_eq!(e.to_string(), "m[($2 + $3)]");
    }

    #[test]
    fn relational_helpers() {
        assert!(BinOp::Le.is_relational());
        assert!(!BinOp::Cmp.is_relational());
        assert_eq!(BinOp::Lt.swapped(), BinOp::Gt);
        assert_eq!(BinOp::Lt.negated(), BinOp::Ge);
        assert_eq!(BinOp::Eq.swapped(), BinOp::Eq);
    }

    #[test]
    fn stmt_display() {
        let s = Stmt::CondGoto {
            rel: BinOp::Eq,
            lhs: Expr::Operand(1),
            rhs: Expr::Int(0),
            target: 2,
        };
        assert_eq!(s.to_string(), "if ($1 == 0) goto $2;");
    }
}
