//! Allocation-policy tests: callee-save preference for call-crossing
//! values, caller-save preference for leaf temporaries, and
//! loop-depth-weighted spill choice — the Chaitin/Briggs behaviours
//! the paper's strategies depend on.

use marion_core::{Compiler, EscapeRegistry, StrategyKind};
use marion_maril::Machine;

const MINI: &str = r#"
declare {
    %reg r[0:15] (int);
    %resource EX; MEM;
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
    %instr addi r, r, #imm16 (int) {$1 = $2 + $3;} [EX;] (1,1,0)
    %instr add r, r, r (int) {$1 = $2 + $3;} [EX;] (1,1,0)
    %instr sub r, r, r (int) {$1 = $2 - $3;} [EX;] (1,1,0)
    %instr mul r, r, r (int) {$1 = $2 * $3;} [EX; EX;] (1,2,0)
    %instr and r, r, r (int) {$1 = $2 & $3;} [EX;] (1,1,0)
    %instr andi r, r, #imm16 (int) {$1 = $2 & $3;} [EX;] (1,1,0)
    %instr li r, r[0], #imm16 (int) {$1 = $3;} [EX;] (1,1,0)
    %instr la r, r[0], #addr (int) {$1 = $3;} [EX;] (1,1,0)
    %instr cmp r, r, r (int) {$1 = $2 :: $3;} [EX;] (1,1,0)
    %instr ld r, r, #imm16 (int) {$1 = m[$2+$3];} [EX; MEM;] (1,2,0)
    %instr st r, r, #imm16 (int) {m[$2+$3] = $1;} [EX; MEM;] (1,1,0)
    %instr blt0 r, #off {if ($1 < 0) goto $2;} [EX;] (1,2,0)
    %instr bge0 r, #off {if ($1 >= 0) goto $2;} [EX;] (1,2,0)
    %instr beq0 r, #off {if ($1 == 0) goto $2;} [EX;] (1,2,0)
    %instr bne0 r, #off {if ($1 != 0) goto $2;} [EX;] (1,2,0)
    %instr ble0 r, #off {if ($1 <= 0) goto $2;} [EX;] (1,2,0)
    %instr bgt0 r, #off {if ($1 > 0) goto $2;} [EX;] (1,2,0)
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

fn compile(src: &str) -> (Machine, marion_core::CompiledProgram) {
    let m = Machine::parse("mini", MINI).unwrap();
    let module = marion_frontend::compile(src).unwrap();
    let compiler = Compiler::new(m.clone(), EscapeRegistry::new(), StrategyKind::Postpass);
    let program = compiler.compile_module(&module).unwrap();
    (m, program)
}

fn regs_written(m: &Machine, f: &marion_core::AsmFunc) -> Vec<u32> {
    let mut out = Vec::new();
    for block in f.blocks.iter() {
        for word in block.words() {
            for inst in word.insts() {
                let t = m.template(inst.template);
                for k in &t.effects.defs {
                    if let Some(marion_core::Operand::Phys(p)) = inst.ops.get((*k - 1) as usize) {
                        out.push(p.index);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn values_crossing_calls_get_callee_saves() {
    // `kept` lives across the call: it must land in r8..r12 (the
    // callee-save allocables).
    let (m, program) = compile(
        "int g(int x) { return x + 1; }
         int f(int a) {
            int kept = a * 7;
            int r = g(a);
            return kept + r;
         }",
    );
    let f = program.asm.func("f").unwrap();
    // The multiply result's register must be callee-save.
    let mul = m.template_by_mnemonic("mul").unwrap();
    let mut mul_dest = None;
    for block in f.blocks.iter() {
        for word in block.words() {
            for inst in word.insts() {
                if inst.template == mul {
                    if let marion_core::Operand::Phys(p) = inst.ops[0] {
                        mul_dest = Some(p.index);
                    }
                }
            }
        }
    }
    let dest = mul_dest.expect("mul found");
    assert!(
        (8..=12).contains(&dest),
        "call-crossing value in caller-save r{dest}"
    );
    // And the prologue must save what it uses.
    assert!(f.frame_size >= 16, "frame must hold ra + saved registers");
}

#[test]
fn leaf_functions_prefer_caller_saves_and_stay_frameless() {
    let (m, program) = compile("int leaf(int a, int b) { return a * b + a - b; }");
    let f = program.asm.func("leaf").unwrap();
    assert_eq!(f.frame_size, 0, "leaf should not touch the stack");
    for idx in regs_written(&m, f) {
        assert!(
            !(8..=12).contains(&idx),
            "leaf temporaries should avoid callee-saves, used r{idx}"
        );
    }
}

#[test]
fn spill_choice_prefers_values_outside_loops() {
    // 12 allocable registers; keep ~14 values live: several cold ones
    // defined before the loop and hot ones used inside it. The cold
    // values must spill, the loop counter must not.
    let src = "
        int a[4];
        int f(int n) {
            int c0 = n + 1, c1 = n + 2, c2 = n + 3, c3 = n + 4, c4 = n + 5,
                c5 = n + 6, c6 = n + 7, c7 = n + 8, c8 = n + 9, c9 = n + 10,
                c10 = n + 11, c11 = n + 12;
            int i, s = 0;
            for (i = 0; i < n; i++) s += a[i & 3] * i;
            return s + c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7 + c8 + c9 + c10 + c11;
        }";
    let (m, program) = compile(src);
    assert!(program.stats.spills > 0, "this kernel must spill");
    // The loop body block must not contain spill loads of the loop
    // counter: find the block executing most often structurally (the
    // one ending in a backward branch) and check it has at most a few
    // memory ops (the a[i&3] load plus perhaps one reload).
    let f = program.asm.func("f").unwrap();
    let ld = m.template_by_mnemonic("ld").unwrap();
    let mut min_loads_in_loop = usize::MAX;
    for (bi, block) in f.blocks.iter().enumerate() {
        let branches_back = block.words().flat_map(|w| w.insts()).any(|inst| {
            inst.ops
                .iter()
                .any(|op| matches!(op, marion_core::Operand::Block(b) if (b.0 as usize) <= bi))
        });
        if branches_back {
            let loads = block
                .words()
                .flat_map(|w| w.insts())
                .filter(|i| i.template == ld)
                .count();
            min_loads_in_loop = min_loads_in_loop.min(loads);
        }
    }
    assert!(
        min_loads_in_loop <= 2,
        "loop body is full of spill reloads ({min_loads_in_loop})"
    );
}
