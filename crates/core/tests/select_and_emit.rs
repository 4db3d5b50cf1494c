//! Integration tests for instruction selection and emission against a
//! small purpose-built machine, exercising behaviours that unit tests
//! in the modules cannot see in isolation: pattern order, immediate
//! subsumption, hard-wired registers, addressing-mode fallback, CSE
//! forcing, dummies, store width selection and prologue/epilogue
//! shape.

use marion_core::{select::select_func, Compiler, EscapeRegistry, Operand, StrategyKind};
use marion_ir::FuncBuilder;
use marion_maril::{Machine, Ty};

const MINI: &str = r#"
declare {
    %reg r[0:15] (int);
    %resource EX; MEM;
    %def imm8 [-128:127];
    %def imm16 [-32768:32767];
    %def addr [0:1048575] +abs;
    %label off [-32768:32767] +relative;
    %memory m[0:16777215];
}
cwvm {
    %general (int) r;
    %general (double) r;
    %general (float) r;
    %allocable r[1:12];
    %calleesave r[8:13];
    %sp r[15] +down;
    %fp r[14] +down;
    %retaddr r[13];
    %hard r[0] 0;
    %arg (int) r[2] 1;
    %arg (int) r[3] 2;
    %result r[2] (int);
}
instr {
    /* Pattern order matters: the small-immediate add must win over
     * the register form when the constant fits. */
    %instr addi8 r, r, #imm8 (int) {$1 = $2 + $3;} [EX;] (1,1,0)
    %instr addi16 r, r, #imm16 (int) {$1 = $2 + $3;} [EX;] (1,1,0)
    /* The matcher tries patterns in description order (paper §2.1),
     * so the fused form must precede the plain add. */
    %instr muladd r, r, r, r (int) {$1 = $2 + $3 * $4;} [EX; EX;] (1,2,0)
    %instr add r, r, r (int) {$1 = $2 + $3;} [EX;] (1,1,0)
    %instr sub r, r, r (int) {$1 = $2 - $3;} [EX;] (1,1,0)
    %instr mul r, r, r (int) {$1 = $2 * $3;} [EX; EX; EX;] (1,3,0)
    %instr li r, r[0], #imm16 (int) {$1 = $3;} [EX;] (1,1,0)
    %instr la r, r[0], #addr (int) {$1 = $3;} [EX;] (1,1,0)
    %instr cmp r, r, r (int) {$1 = $2 :: $3;} [EX;] (1,1,0)
    %instr ld r, r, #imm16 (int) {$1 = m[$2+$3];} [EX; MEM;] (1,2,0)
    %instr st r, r, #imm16 (int) {m[$2+$3] = $1;} [EX; MEM;] (1,1,0)
    %instr ld.b r, r, #imm16 (char) {$1 = m[$2+$3];} [EX; MEM;] (1,2,0)
    %instr st.b r, r, #imm16 (char) {m[$2+$3] = $1;} [EX; MEM;] (1,1,0)
    %instr cvt.w r, r (int) {$1 = (int)$2;} [] (0,0,0)
    %instr beq0 r, #off {if ($1 == 0) goto $2;} [EX;] (1,2,0)
    %instr bne0 r, #off {if ($1 != 0) goto $2;} [EX;] (1,2,0)
    %instr blt0 r, #off {if ($1 < 0) goto $2;} [EX;] (1,2,0)
    %instr ble0 r, #off {if ($1 <= 0) goto $2;} [EX;] (1,2,0)
    %instr bgt0 r, #off {if ($1 > 0) goto $2;} [EX;] (1,2,0)
    %instr bge0 r, #off {if ($1 >= 0) goto $2;} [EX;] (1,2,0)
    %instr jmp #off {goto $1;} [EX;] (1,1,0)
    %instr call #off {call $1;} [EX;] (1,1,0)
    %instr ret {return;} [EX;] (1,1,0)
    %instr nop {} [EX;] (1,1,0)
    %move mov r, r, r[0] {$1 = $2;} [EX;] (1,1,0)
    %glue r, r {($1 == $2) ==> (($1 :: $2) == 0);}
    %glue r, r {($1 != $2) ==> (($1 :: $2) != 0);}
    %glue r, r {($1 < $2) ==> (($1 :: $2) < 0);}
    %glue r, r {($1 <= $2) ==> (($1 :: $2) <= 0);}
}
"#;

fn mini() -> Machine {
    Machine::parse("mini", MINI).unwrap()
}

fn mnemonics(machine: &Machine, code: &marion_core::CodeFunc) -> Vec<String> {
    code.blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .map(|i| machine.template(i.template).mnemonic.clone())
        .collect()
}

fn select_expr(machine: &Machine, build: impl FnOnce(&mut FuncBuilder)) -> marion_core::CodeFunc {
    let mut module = marion_ir::Module::new();
    let mut b = FuncBuilder::new("f", Some(Ty::Int));
    build(&mut b);
    module.add_func(b.finish());
    let mut f = module.funcs[0].clone();
    marion_core::glue::apply_glue(machine, &mut f).unwrap();
    select_func(machine, &EscapeRegistry::new(), &module, &f).unwrap()
}

#[test]
fn first_matching_pattern_wins() {
    let m = mini();
    // x + 5 fits imm8 -> addi8; x + 1000 fits imm16 only -> addi16;
    // x + y -> add.
    let code = select_expr(&m, |b| {
        let p = b.param(Ty::Int);
        let x = b.read_vreg(p);
        let c5 = b.const_i(5, Ty::Int);
        let s1 = b.bin(marion_ir::BinOp::Add, x, c5, Ty::Int);
        let c1000 = b.const_i(1000, Ty::Int);
        let s2 = b.bin(marion_ir::BinOp::Add, s1, c1000, Ty::Int);
        let s3 = b.bin(marion_ir::BinOp::Add, s2, s2, Ty::Int);
        b.ret(Some(s3));
    });
    let ms = mnemonics(&m, &code);
    assert!(ms.contains(&"addi8".to_string()), "{ms:?}");
    assert!(ms.contains(&"addi16".to_string()), "{ms:?}");
    assert!(ms.contains(&"add".to_string()), "{ms:?}");
}

#[test]
fn compound_pattern_preferred_over_pieces() {
    let m = mini();
    // a + b*c should match the 4-operand muladd, not mul + add.
    let code = select_expr(&m, |b| {
        let p = b.param(Ty::Int);
        let q = b.param(Ty::Int);
        let a = b.read_vreg(p);
        let bb = b.read_vreg(q);
        let prod = b.bin(marion_ir::BinOp::Mul, a, bb, Ty::Int);
        let sum = b.bin(marion_ir::BinOp::Add, a, prod, Ty::Int);
        b.ret(Some(sum));
    });
    let ms = mnemonics(&m, &code);
    assert!(ms.contains(&"muladd".to_string()), "{ms:?}");
    assert!(!ms.contains(&"mul".to_string()), "{ms:?}");
}

#[test]
fn zero_constant_binds_hard_register() {
    let m = mini();
    // x + 0: the Reg operand can bind r0 directly — no li for the 0.
    let code = select_expr(&m, |b| {
        let p = b.param(Ty::Int);
        let x = b.read_vreg(p);
        let z = b.const_i(0, Ty::Int);
        let s = b.bin(marion_ir::BinOp::Sub, x, z, Ty::Int);
        b.ret(Some(s));
    });
    let ms = mnemonics(&m, &code);
    assert!(!ms.contains(&"li".to_string()), "no li for zero: {ms:?}");
    let r = m.reg_class_by_name("r").unwrap();
    let uses_r0 = code.blocks.iter().flat_map(|b| b.insts.iter()).any(|i| {
        i.ops
            .contains(&Operand::Phys(marion_maril::PhysReg::new(r, 0)))
    });
    assert!(uses_r0);
}

#[test]
fn shared_subexpression_selected_once() {
    let m = mini();
    // (a*b) + (a*b): one mul/muladd-chain for the shared node.
    let code = select_expr(&m, |b| {
        let p = b.param(Ty::Int);
        let q = b.param(Ty::Int);
        let a = b.read_vreg(p);
        let bb = b.read_vreg(q);
        let prod = b.bin(marion_ir::BinOp::Mul, a, bb, Ty::Int);
        let sum = b.bin(marion_ir::BinOp::Add, prod, prod, Ty::Int);
        b.ret(Some(sum));
    });
    let ms = mnemonics(&m, &code);
    let muls = ms.iter().filter(|m| m.as_str() == "mul").count();
    assert_eq!(muls, 1, "shared node must be selected once: {ms:?}");
}

#[test]
fn address_fallback_covers_bare_and_computed_addresses() {
    let m = mini();
    let mut module = marion_ir::Module::new();
    let g = module.add_global(marion_ir::Global {
        name: "x".into(),
        init: marion_ir::GlobalInit::Zero(64),
    });
    let mut b = FuncBuilder::new("f", Some(Ty::Int));
    let p = b.param(Ty::Int);
    let i = b.read_vreg(p);
    // x[i*4]: address = &x + i*4 — the offset is not constant, so the
    // selector must fall back to (reg + 0) addressing.
    let base = b.global_addr(g);
    let four = b.const_i(4, Ty::Int);
    let off = b.bin(marion_ir::BinOp::Mul, i, four, Ty::Int);
    let addr = b.bin(marion_ir::BinOp::Add, base, off, Ty::Ptr);
    let v = b.load(addr, Ty::Int);
    // x[2]: address = &x + 8, constant — must use the immediate form.
    let eight = b.const_i(8, Ty::Int);
    let addr2 = b.bin(marion_ir::BinOp::Add, base, eight, Ty::Ptr);
    let v2 = b.load(addr2, Ty::Int);
    let s = b.bin(marion_ir::BinOp::Add, v, v2, Ty::Int);
    b.ret(Some(s));
    module.add_func(b.finish());
    let mut f = module.funcs[0].clone();
    marion_core::glue::apply_glue(&m, &mut f).unwrap();
    let code = select_func(&m, &EscapeRegistry::new(), &module, &f).unwrap();
    let lds: Vec<&marion_core::Inst> = code
        .blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .filter(|i| m.template(i.template).mnemonic == "ld")
        .collect();
    assert_eq!(lds.len(), 2);
    // One load has offset 0 (fallback), the other a constant 8.
    let offsets: Vec<Operand> = lds.iter().map(|i| i.ops[2]).collect();
    assert!(
        offsets.contains(&Operand::Imm(marion_core::ImmVal::Const(0))),
        "{offsets:?}"
    );
    assert!(
        offsets.contains(&Operand::Imm(marion_core::ImmVal::Const(8))),
        "{offsets:?}"
    );
}

#[test]
fn store_width_follows_type() {
    let m = mini();
    let mut module = marion_ir::Module::new();
    let g = module.add_global(marion_ir::Global {
        name: "buf".into(),
        init: marion_ir::GlobalInit::Zero(16),
    });
    let mut b = FuncBuilder::new("f", Some(Ty::Int));
    let base = b.global_addr(g);
    let c = b.const_i(65, Ty::Int);
    b.store(base, c, Ty::Char);
    let c2 = b.const_i(70000, Ty::Int);
    let four = b.const_i(4, Ty::Int);
    let a2 = b.bin(marion_ir::BinOp::Add, base, four, Ty::Ptr);
    b.store(a2, c2, Ty::Int);
    let z = b.const_i(0, Ty::Int);
    b.ret(Some(z));
    module.add_func(b.finish());
    let mut f = module.funcs[0].clone();
    marion_core::glue::apply_glue(&m, &mut f).unwrap();
    let code = select_func(&m, &EscapeRegistry::new(), &module, &f).unwrap();
    let ms = mnemonics(&m, &code);
    assert!(ms.contains(&"st.b".to_string()), "{ms:?}");
    assert!(ms.contains(&"st".to_string()), "{ms:?}");
}

#[test]
fn dummy_conversion_emits_nothing() {
    let m = mini();
    // int -> ptr conversion is a zero-cost dummy.
    let code = select_expr(&m, |b| {
        let p = b.param(Ty::Int);
        let x = b.read_vreg(p);
        let ptr = b.cvt(x, Ty::Ptr);
        let back = b.cvt(ptr, Ty::Int);
        b.ret(Some(back));
    });
    let ms = mnemonics(&m, &code);
    assert!(
        !ms.contains(&"cvt.w".to_string()),
        "dummies must vanish: {ms:?}"
    );
}

#[test]
fn whole_pipeline_prologue_epilogue_shape() {
    let m = mini();
    let src = "int leaf(int a, int b) { return a + b; }
               int caller(int a) { return leaf(a, a) + leaf(a, 1); }";
    let module = marion_frontend::compile(src).unwrap();
    let compiler = Compiler::new(m.clone(), EscapeRegistry::new(), StrategyKind::Postpass);
    let program = compiler.compile_module(&module).unwrap();
    // Leaf function: no frame at all (no calls, no locals, no saves).
    let leaf = program.asm.func("leaf").unwrap();
    assert_eq!(leaf.frame_size, 0, "leaf should be frameless");
    // Caller: has a frame and saves the return address.
    let caller = program.asm.func("caller").unwrap();
    assert!(caller.frame_size >= 8);
    let first_word = caller.blocks[0].words().next().expect("a first word");
    let first = first_word.insts().next().expect("a first instruction");
    // Frame push first: an add-immediate on the stack pointer by
    // -frame_size (whichever immediate form fits).
    assert!(
        m.template(first.template).mnemonic.starts_with("addi"),
        "prologue starts with the frame push, got {}",
        m.template(first.template).mnemonic
    );
    assert_eq!(
        first.ops[2],
        Operand::Imm(marion_core::ImmVal::Const(-(caller.frame_size as i64)))
    );
}

#[test]
fn branch_selection_swaps_relations() {
    let m = mini();
    // `0 < x` must still select (as x > 0 — swapped match).
    let src = "int f(int x) { if (0 < x) return 1; return 2; }";
    let module = marion_frontend::compile(src).unwrap();
    let compiler = Compiler::new(m.clone(), EscapeRegistry::new(), StrategyKind::Postpass);
    assert!(compiler.compile_module(&module).is_ok());
}

#[test]
fn missing_pattern_reports_cleanly() {
    // A machine without multiply cannot select `a * b`.
    let text = MINI.replace(" * ", " & "); // no multiply patterns remain
    let m = Machine::parse("mini-nomul", &text).unwrap();
    let module = marion_frontend::compile("int f(int a, int b) { return a * b; }").unwrap();
    let mut f = module.funcs[0].clone();
    marion_core::glue::apply_glue(&m, &mut f).unwrap();
    let err = select_func(&m, &EscapeRegistry::new(), &module, &f).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("no pattern matches"), "{msg}");
    assert!(msg.contains('*'), "should render the offending tree: {msg}");
}

#[test]
fn rendered_assembly_is_stable_and_complete() {
    let m = mini();
    let src = "int g;
        int f(int x) { if (x > 0) g = x; return g + x; }";
    let module = marion_frontend::compile(src).unwrap();
    let compiler = Compiler::new(m.clone(), EscapeRegistry::new(), StrategyKind::Postpass);
    let program = compiler.compile_module(&module).unwrap();
    let text = program.render(&m);
    // Labels for every block, the global by name, register syntax.
    assert!(text.contains("f:"), "{text}");
    assert!(text.contains(".Lf_0:"), "{text}");
    assert!(text.contains('g'), "{text}");
    assert!(text.contains("r15") || text.contains("r2"), "{text}");
    // Rendering is deterministic.
    assert_eq!(text, program.render(&m));
    // Branch targets reference labels that exist.
    for line in text.lines() {
        if let Some(pos) = line.find(".Lf_") {
            let label: String = line[pos..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_' || *c == 'L')
                .collect();
            let defined = format!("{}:", label.trim_end_matches(':'));
            assert!(
                text.contains(&defined),
                "undefined label {label} in\n{text}"
            );
        }
    }
}
