//! Recursive-descent parser for the C subset.

use crate::ast::*;
use crate::lexer::{Tok, Token};
use crate::CError;
use marion_maril::Ty;

/// Parses tokens into a [`Program`].
///
/// # Errors
///
/// Returns the first grammar violation with its source line.
pub fn parse(tokens: &[Token]) -> Result<Program, CError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut program = Program::default();
    while p.peek() != &Tok::Eof {
        program.items.extend(p.item()?);
    }
    Ok(program)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].tok
    }

    fn peek_at(&self, ahead: usize) -> &Tok {
        &self.tokens[(self.pos + ahead).min(self.tokens.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> &'a Tok {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)].tok;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), CError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(CError::new(
                self.line(),
                format!("expected {tok:?}, found {:?}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, CError> {
        match self.peek().clone() {
            Tok::Ident(name) if !is_keyword(&name) => {
                self.bump();
                Ok(name)
            }
            other => Err(CError::new(
                self.line(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    fn base_type(&mut self) -> Result<Option<CTy>, CError> {
        let Tok::Ident(name) = self.peek() else {
            return Ok(None);
        };
        let ty = match name.as_str() {
            "void" => CTy::Void,
            "char" => CTy::Scalar(Ty::Char),
            "short" => CTy::Scalar(Ty::Short),
            "int" => CTy::Scalar(Ty::Int),
            "long" => CTy::Scalar(Ty::Long),
            "float" => CTy::Scalar(Ty::Float),
            "double" => CTy::Scalar(Ty::Double),
            "unsigned" | "signed" => {
                self.bump();
                // Optional following `int`/`char`/...; treat as signed.
                if let Some(t) = self.base_type()? {
                    return Ok(Some(t));
                }
                return Ok(Some(CTy::Scalar(Ty::Int)));
            }
            _ => return Ok(None),
        };
        self.bump();
        Ok(Some(ty))
    }

    /// Parses top-level items. A single `double x, *y, z[3];` yields
    /// multiple globals; a type followed by `name(` begins a function.
    fn item(&mut self) -> Result<Vec<Item>, CError> {
        let line = self.line();
        let Some(base) = self.base_type()? else {
            return Err(CError::new(
                line,
                format!("expected a declaration, found {:?}", self.peek()),
            ));
        };
        // Look ahead: `ident (` → function.
        let mut stars = 0;
        while matches!(self.peek_at(stars), Tok::Star) {
            stars += 1;
        }
        if matches!(self.peek_at(stars), Tok::Ident(_))
            && matches!(self.peek_at(stars + 1), Tok::LParen)
        {
            let mut ret = base;
            for _ in 0..stars {
                self.bump();
                ret = CTy::Ptr(Box::new(ret));
            }
            return Ok(vec![Item::Func(self.func_rest(ret, line)?)]);
        }
        let decls = self.var_decls(base, true)?;
        self.expect(&Tok::Semi)?;
        Ok(decls.into_iter().map(Item::Global).collect())
    }

    fn func_rest(&mut self, ret: CTy, line: usize) -> Result<FuncDecl, CError> {
        let name = self.expect_ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            // `(void)` means no parameters.
            if matches!(self.peek(), Tok::Ident(n) if n == "void")
                && matches!(self.peek_at(1), Tok::RParen)
            {
                self.bump();
                self.expect(&Tok::RParen)?;
            } else {
                loop {
                    let pline = self.line();
                    let Some(base) = self.base_type()? else {
                        return Err(CError::new(pline, "expected parameter type"));
                    };
                    let mut ty = base;
                    while self.eat(&Tok::Star) {
                        ty = CTy::Ptr(Box::new(ty));
                    }
                    let pname = self.expect_ident()?;
                    // `double a[]` or `double a[10]` decays to pointer.
                    while self.eat(&Tok::LBracket) {
                        if let Tok::Int(_) = self.peek() {
                            self.bump();
                        }
                        self.expect(&Tok::RBracket)?;
                        ty = CTy::Ptr(Box::new(ty));
                    }
                    params.push(Param { name: pname, ty });
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
        }
        if self.eat(&Tok::Semi) {
            return Ok(FuncDecl {
                name,
                ret,
                params,
                body: None,
                line,
            });
        }
        self.expect(&Tok::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(&Tok::RBrace) {
            body.push(self.stmt()?);
        }
        Ok(FuncDecl {
            name,
            ret,
            params,
            body: Some(body),
            line,
        })
    }

    /// Parses the declarators after a base type:
    /// `*x, y[10], z = 3` (initialiser lists only if `allow_lists`).
    fn var_decls(&mut self, base: CTy, allow_lists: bool) -> Result<Vec<VarDecl>, CError> {
        let mut out = Vec::new();
        loop {
            let line = self.line();
            let mut ty = base.clone();
            while self.eat(&Tok::Star) {
                ty = CTy::Ptr(Box::new(ty));
            }
            let name = self.expect_ident()?;
            let mut dims = Vec::new();
            while self.eat(&Tok::LBracket) {
                match self.bump() {
                    Tok::Int(n) if *n <= i64::from(i32::MAX) => dims.push(*n as u32),
                    Tok::Int(n) => {
                        return Err(CError::new(
                            line,
                            format!("array dimension {n} does not fit in a 32-bit `int`"),
                        ));
                    }
                    other => {
                        return Err(CError::new(
                            line,
                            format!("array dimension must be an integer literal, found {other:?}"),
                        ));
                    }
                }
                self.expect(&Tok::RBracket)?;
            }
            for d in dims.into_iter().rev() {
                ty = CTy::Array(Box::new(ty), d);
            }
            let mut init = None;
            let mut init_list = None;
            if self.eat(&Tok::Assign) {
                if self.eat(&Tok::LBrace) {
                    if !allow_lists {
                        return Err(CError::new(
                            line,
                            "initialiser lists only allowed on globals",
                        ));
                    }
                    let mut items = Vec::new();
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == &Tok::RBrace {
                            break;
                        }
                    }
                    self.expect(&Tok::RBrace)?;
                    init_list = Some(items);
                } else {
                    init = Some(self.expr()?);
                }
            }
            out.push(VarDecl {
                name,
                ty,
                init,
                init_list,
                line,
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, CError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::LBrace => {
                self.bump();
                let mut stmts = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then_s = Box::new(self.stmt()?);
                let else_s = if matches!(self.peek(), Tok::Ident(k) if k == "else") {
                    self.bump();
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_s,
                    else_s,
                })
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body })
            }
            Tok::Ident(kw) if kw == "do" => {
                self.bump();
                let body = Box::new(self.stmt()?);
                match self.bump() {
                    Tok::Ident(k) if k == "while" => {}
                    other => {
                        return Err(CError::new(
                            line,
                            format!("expected `while`, found {other:?}"),
                        ));
                    }
                }
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::Ident(kw) if kw == "for" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else if let Some(base) = self.base_type()? {
                    let decls = self.var_decls(base, false)?;
                    self.expect(&Tok::Semi)?;
                    Some(Box::new(Stmt::Decl(decls)))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Ident(kw) if kw == "return" => {
                self.bump();
                if self.eat(&Tok::Semi) {
                    Ok(Stmt::Return(None, line))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Return(Some(e), line))
                }
            }
            Tok::Ident(kw) if kw == "break" => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(line))
            }
            Tok::Ident(kw) if kw == "continue" => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(line))
            }
            _ => {
                if let Some(base) = self.base_type()? {
                    let decls = self.var_decls(base, false)?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Decl(decls))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Expr(e))
                }
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, CError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, CError> {
        let lhs = self.binary(0)?;
        let line = self.line();
        match self.peek().clone() {
            Tok::Assign => {
                self.bump();
                let rhs = self.assignment()?;
                Ok(Expr {
                    kind: ExprKind::Assign(Box::new(lhs), Box::new(rhs)),
                    line,
                })
            }
            Tok::OpAssign(op) => {
                self.bump();
                let rhs = self.assignment()?;
                let bop = match op {
                    '+' => CBinOp::Add,
                    '-' => CBinOp::Sub,
                    '*' => CBinOp::Mul,
                    '/' => CBinOp::Div,
                    _ => CBinOp::Rem,
                };
                Ok(Expr {
                    kind: ExprKind::OpAssign(bop, Box::new(lhs), Box::new(rhs)),
                    line,
                })
            }
            _ => Ok(lhs),
        }
    }

    fn binary(&mut self, min_bp: u8) -> Result<Expr, CError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, bp) = match self.peek() {
                Tok::OrOr => (CBinOp::LOr, 1),
                Tok::AndAnd => (CBinOp::LAnd, 2),
                Tok::Pipe => (CBinOp::Or, 3),
                Tok::Caret => (CBinOp::Xor, 4),
                Tok::Amp => (CBinOp::And, 5),
                Tok::EqEq => (CBinOp::Eq, 6),
                Tok::Ne => (CBinOp::Ne, 6),
                Tok::Lt => (CBinOp::Lt, 7),
                Tok::Le => (CBinOp::Le, 7),
                Tok::Gt => (CBinOp::Gt, 7),
                Tok::Ge => (CBinOp::Ge, 7),
                Tok::Shl => (CBinOp::Shl, 8),
                Tok::Shr => (CBinOp::Shr, 8),
                Tok::Plus => (CBinOp::Add, 9),
                Tok::Minus => (CBinOp::Sub, 9),
                Tok::Star => (CBinOp::Mul, 10),
                Tok::Slash => (CBinOp::Div, 10),
                Tok::Percent => (CBinOp::Rem, 10),
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary(bp + 1)?;
            lhs = Expr {
                kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                // `-2147483648` is INT_MIN, the one literal past `int`'s
                // range that C code writes; it is lowered as the
                // negation of 2^31.
                let e = if let Tok::Int(_) = self.peek() {
                    self.postfix(true)?
                } else {
                    self.unary()?
                };
                Ok(Expr {
                    kind: ExprKind::Un(CUnOp::Neg, Box::new(e)),
                    line,
                })
            }
            Tok::Bang => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Un(CUnOp::LNot, Box::new(e)),
                    line,
                })
            }
            Tok::Tilde => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Un(CUnOp::BNot, Box::new(e)),
                    line,
                })
            }
            Tok::Star => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Deref(Box::new(e)),
                    line,
                })
            }
            Tok::Amp => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::AddrOf(Box::new(e)),
                    line,
                })
            }
            Tok::Inc | Tok::Dec => {
                let delta = if self.bump() == &Tok::Inc { 1 } else { -1 };
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::IncDec {
                        target: Box::new(e),
                        delta,
                        postfix: false,
                    },
                    line,
                })
            }
            Tok::LParen => {
                // Cast or parenthesised expression.
                if let Tok::Ident(name) = self.peek_at(1) {
                    if is_type_keyword(name) {
                        self.bump(); // (
                        let base = self.base_type()?.unwrap();
                        let mut ty = base;
                        while self.eat(&Tok::Star) {
                            ty = CTy::Ptr(Box::new(ty));
                        }
                        self.expect(&Tok::RParen)?;
                        let e = self.unary()?;
                        return Ok(Expr {
                            kind: ExprKind::Cast(ty, Box::new(e)),
                            line,
                        });
                    }
                }
                self.postfix(false)
            }
            _ => self.postfix(false),
        }
    }

    /// `negated`: the expression is the operand of a unary minus, so
    /// an integer literal may be 2^31.
    fn postfix(&mut self, negated: bool) -> Result<Expr, CError> {
        let line = self.line();
        let mut e = match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                if v > i64::from(i32::MAX) + i64::from(negated) {
                    return Err(CError::new(
                        line,
                        format!("integer literal {v} does not fit in a 32-bit `int`"),
                    ));
                }
                Expr {
                    kind: ExprKind::IntLit(v),
                    line,
                }
            }
            Tok::Float(v) => {
                self.bump();
                Expr {
                    kind: ExprKind::FloatLit(v),
                    line,
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                e
            }
            Tok::Ident(name) if !is_keyword(&name) => {
                self.bump();
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    Expr {
                        kind: ExprKind::Call(name, args),
                        line,
                    }
                } else {
                    Expr {
                        kind: ExprKind::Ident(name),
                        line,
                    }
                }
            }
            other => {
                return Err(CError::new(
                    line,
                    format!("expected expression, found {other:?}"),
                ));
            }
        };
        loop {
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr {
                        kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                        line,
                    };
                }
                Tok::Inc | Tok::Dec => {
                    let delta = if self.bump() == &Tok::Inc { 1 } else { -1 };
                    e = Expr {
                        kind: ExprKind::IncDec {
                            target: Box::new(e),
                            delta,
                            postfix: true,
                        },
                        line,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }
}

fn is_type_keyword(name: &str) -> bool {
    matches!(
        name,
        "void" | "char" | "short" | "int" | "long" | "float" | "double" | "unsigned" | "signed"
    )
}

fn is_keyword(name: &str) -> bool {
    is_type_keyword(name)
        || matches!(
            name,
            "if" | "else" | "while" | "for" | "do" | "return" | "break" | "continue"
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_params() {
        let p = parse_src("int add(int a, int b) { return a + b; }");
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert!(f.body.is_some());
        assert_eq!(f.ret, CTy::Scalar(Ty::Int));
    }

    #[test]
    fn parses_globals_with_arrays_and_lists() {
        let p = parse_src("double x[100]; int n = 3, m; double w[2] = {1.0, 2.0};");
        assert_eq!(p.items.len(), 4);
        let Item::Global(g) = &p.items[0] else {
            panic!()
        };
        assert_eq!(g.ty, CTy::Array(Box::new(CTy::Scalar(Ty::Double)), 100));
        let Item::Global(w) = &p.items[3] else {
            panic!()
        };
        assert_eq!(w.init_list.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn parses_2d_array() {
        let p = parse_src("double u[5][22];");
        let Item::Global(g) = &p.items[0] else {
            panic!()
        };
        assert_eq!(
            g.ty,
            CTy::Array(
                Box::new(CTy::Array(Box::new(CTy::Scalar(Ty::Double)), 22)),
                5
            )
        );
    }

    #[test]
    fn parses_control_flow() {
        let p = parse_src(
            "void f(int n) {
                int i;
                for (i = 0; i < n; i++) {
                    if (i % 2 == 0) continue; else break;
                }
                while (n > 0) n--;
                do { n++; } while (n < 10);
            }",
        );
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert_eq!(f.body.as_ref().unwrap().len(), 4);
    }

    #[test]
    fn parses_pointer_params_and_array_decay() {
        let p = parse_src("double sum(double *a, double b[], int n) { return 0.0; }");
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert_eq!(f.params[0].ty, CTy::Ptr(Box::new(CTy::Scalar(Ty::Double))));
        assert_eq!(f.params[1].ty, CTy::Ptr(Box::new(CTy::Scalar(Ty::Double))));
    }

    #[test]
    fn parses_casts_and_unaries() {
        let p = parse_src("int f(double x) { return (int)x + -1 + !0 + ~5; }");
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(
            f.body.as_ref().unwrap()[0],
            Stmt::Return(Some(_), _)
        ));
    }

    #[test]
    fn parses_prototypes() {
        let p = parse_src("double kernel(int n); int main(void) { return 0; }");
        let Item::Func(proto) = &p.items[0] else {
            panic!()
        };
        assert!(proto.body.is_none());
        let Item::Func(main) = &p.items[1] else {
            panic!()
        };
        assert!(main.params.is_empty());
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("int f() { return 1 + 2 * 3; }");
        let Item::Func(f) = &p.items[0] else { panic!() };
        let Stmt::Return(Some(e), _) = &f.body.as_ref().unwrap()[0] else {
            panic!()
        };
        let ExprKind::Bin(CBinOp::Add, _, rhs) = &e.kind else {
            panic!("expected + at top: {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Bin(CBinOp::Mul, _, _)));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse(&lex("int f( { }").unwrap()).is_err());
        assert!(parse(&lex("int x[n];").unwrap()).is_err());
    }

    #[test]
    fn parses_compound_assign_and_incdec() {
        let p = parse_src("void f() { int i; i += 2; i--; ++i; }");
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert_eq!(f.body.as_ref().unwrap().len(), 4);
    }
}
