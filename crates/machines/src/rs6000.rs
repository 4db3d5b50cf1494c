//! An IBM RS/6000 (POWER) lookalike — the paper's §5 extension
//! exercise, carried out.
//!
//! > "Marion should be able to model multiple instruction issue on
//! > the IBM RS/6000 \[War90\] by giving each functional unit a
//! > separate set of resources. Since instructions using different
//! > functional units will cause no structural hazards, they could be
//! > scheduled on the same cycle."
//!
//! So: three functional units — branch (BRU), fixed point (FXU) and
//! floating point (FPU) — each with its own resources, letting up to
//! three instructions issue per cycle with no Maril feature beyond
//! what the paper already has. Other POWER-isms modelled: 64-bit
//! floating registers (doubles are single registers, no pairs), the
//! fused multiply-add (`fma` selected by pattern order before the
//! plain add), and **no branch delay slots** (the BRU resolves
//! branches ahead of the pipeline).

use crate::MachineSpec;
use marion_core::{CodegenError, EscapeCtx, EscapeRegistry, ImmVal, Operand};
use marion_maril::Machine;

/// The Maril source text.
pub fn text() -> &'static str {
    RS6000
}

/// Parses and compiles the description.
///
/// # Panics
///
/// Never in practice — the bundled text is tested.
pub fn load() -> Machine {
    match Machine::parse("rs6000", RS6000) {
        Ok(m) => m,
        Err(e) => panic!("{}", e.render("rs6000.maril", RS6000)),
    }
}

/// The machine plus its escapes.
pub fn spec() -> MachineSpec {
    MachineSpec {
        machine: load(),
        escapes: escapes(),
    }
}

/// RS/6000 escapes.
pub fn escapes() -> EscapeRegistry {
    let mut reg = EscapeRegistry::new();
    reg.register("li32", li32);
    reg.register("cvt8", cvt8);
    reg.register("cvt16", cvt16);
    reg
}

/// `*li32` — `addis` (shifted immediate) then `ori`.
fn li32(ctx: &mut EscapeCtx<'_, '_>, ops: &[Operand]) -> Result<(), CodegenError> {
    let dest = ops[0];
    let Operand::Imm(imm) = ops[1] else {
        return Err(CodegenError::new(
            marion_core::Phase::Select,
            "li32 needs an immediate operand",
        ));
    };
    let hi = ctx.imm_high(imm);
    let lo = ctx.imm_low(imm);
    ctx.emit("addis", vec![dest, Operand::Imm(hi)])?;
    ctx.emit("ori", vec![dest, dest, Operand::Imm(lo)])?;
    Ok(())
}

fn cvt8(ctx: &mut EscapeCtx<'_, '_>, ops: &[Operand]) -> Result<(), CodegenError> {
    narrow(ctx, ops, 24)
}

fn cvt16(ctx: &mut EscapeCtx<'_, '_>, ops: &[Operand]) -> Result<(), CodegenError> {
    narrow(ctx, ops, 16)
}

fn narrow(ctx: &mut EscapeCtx<'_, '_>, ops: &[Operand], bits: i64) -> Result<(), CodegenError> {
    let sh = Operand::Imm(ImmVal::Const(bits));
    ctx.emit("slwi", vec![ops[0], ops[1], sh])?;
    ctx.emit("srawi", vec![ops[0], ops[0], sh])?;
    Ok(())
}

const RS6000: &str = r#"
/* IBM RS/6000 (POWER) lookalike: three functional units with disjoint
 * resources = superscalar issue; 64-bit fp registers; fused
 * multiply-add; no branch delay slots. */

declare {
    %reg r[0:31] (int);
    %reg f[0:31] (double, float);
    %resource BRU;                  /* branch unit */
    %resource FXU; FXM; FXD;        /* fixed point: pipe, multiplier, divider */
    %resource FPU1; FPU2; FPD;      /* floating point: two pipe stages, divider */
    %resource DCU;                  /* data cache unit */
    %def simm16 [-32768:32767];
    %def uimm16 [0:65535];
    %def uimm5 [0:31];
    %def imm32 [-2147483648:2147483647] +abs;
    %label rel [-33554432:33554431] +relative;
    %memory m[0:2147483647];
}

cwvm {
    %general (int) r;
    %general (double) f;
    %general (float) f;
    %allocable r[3:12];
    %allocable f[1:13];
    %calleesave r[8:12];
    %calleesave f[9:13];
    %sp r[1] +down;
    %fp r[31] +down;
    %retaddr r[2];                  /* the link register, as a GPR */
    %hard r[0] 0;
    %arg (int) r[3] 1;
    %arg (int) r[4] 2;
    %arg (int) r[5] 3;
    %arg (int) r[6] 4;
    %arg (double) f[1] 1;
    %arg (double) f[2] 2;
    %arg (float) f[3] 1;
    %result r[3] (int);
    %result f[1] (double);
    %result f[3] (float);
}

instr {
    /* ---------------- fixed point unit ---------------- */
    %instr add r, r, r (int) {$1 = $2 + $3;} [FXU;] (1,1,0)
    %instr addi r, r, #simm16 (int) {$1 = $2 + $3;} [FXU;] (1,1,0)
    %instr li r, r[0], #simm16 (int) {$1 = $3;} [FXU;] (1,1,0)
    %instr *li32 r, #imm32 (int) {$1 = $2;} [FXU;] (1,1,0)
    %instr addis r, #uimm16 (int) {$1 = $2 << 16;} [FXU;] (1,1,0)
    %instr subf r, r, r (int) {$1 = $2 - $3;} [FXU;] (1,1,0)
    %instr subfi r, r, #simm16 (int) {$1 = $2 - $3;} [FXU;] (1,1,0)
    %instr neg r, r (int) {$1 = -$2;} [FXU;] (1,1,0)
    %instr nand1 r, r (int) {$1 = ~$2;} [FXU;] (1,1,0)
    %instr and r, r, r (int) {$1 = $2 & $3;} [FXU;] (1,1,0)
    %instr or r, r, r (int) {$1 = $2 | $3;} [FXU;] (1,1,0)
    %instr ori r, r, #uimm16 (int) {$1 = $2 | $3;} [FXU;] (1,1,0)
    %instr xor r, r, r (int) {$1 = $2 ^ $3;} [FXU;] (1,1,0)
    %instr slw r, r, r (int) {$1 = $2 << $3;} [FXU;] (1,1,0)
    %instr slwi r, r, #uimm5 (int) {$1 = $2 << $3;} [FXU;] (1,1,0)
    %instr sraw r, r, r (int) {$1 = $2 >> $3;} [FXU;] (1,1,0)
    %instr srawi r, r, #uimm5 (int) {$1 = $2 >> $3;} [FXU;] (1,1,0)
    %instr mullw r, r, r (int) {$1 = $2 * $3;} [FXU; FXM; FXM; FXM;] (1,5,0)
    %instr divw r, r, r (int) {$1 = $2 / $3;} [FXU; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD;] (1,19,0)
    %instr remw r, r, r (int) {$1 = $2 % $3;} [FXU; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD; FXD;] (1,19,0)
    %instr cmp r, r, r (int) {$1 = $2 :: $3;} [FXU;] (1,1,0)

    /* ---------------- data cache unit ---------------- */
    %instr lwz r, r, #simm16 (int) {$1 = m[$2+$3];} [FXU; DCU;] (1,2,0)
    %instr stw r, r, #simm16 (int) {m[$2+$3] = $1;} [FXU; DCU;] (1,1,0)
    %instr lbz r, r, #simm16 (char) {$1 = m[$2+$3];} [FXU; DCU;] (1,2,0)
    %instr stb r, r, #simm16 (char) {m[$2+$3] = $1;} [FXU; DCU;] (1,1,0)
    %instr lhz r, r, #simm16 (short) {$1 = m[$2+$3];} [FXU; DCU;] (1,2,0)
    %instr sth r, r, #simm16 (short) {m[$2+$3] = $1;} [FXU; DCU;] (1,1,0)
    %instr lfd f, r, #simm16 (double) {$1 = m[$2+$3];} [FXU; DCU;] (1,2,0)
    %instr stfd f, r, #simm16 (double) {m[$2+$3] = $1;} [FXU; DCU;] (1,1,0)
    %instr lfs f, r, #simm16 (float) {$1 = m[$2+$3];} [FXU; DCU;] (1,2,0)
    %instr stfs f, r, #simm16 (float) {m[$2+$3] = $1;} [FXU; DCU;] (1,1,0)

    /* ---------------- floating point unit ---------------- */
    /* The fused multiply-adds come first: pattern order makes the
     * selector prefer them over separate multiply + add (POWER's
     * signature instruction). */
    %instr fma f, f, f, f (double) {$1 = $2 + $3 * $4;} [FPU1; FPU2;] (1,2,0)
    %instr fms f, f, f, f (double) {$1 = $2 - $3 * $4;} [FPU1; FPU2;] (1,2,0)
    %instr fadd f, f, f (double) {$1 = $2 + $3;} [FPU1; FPU2;] (1,2,0)
    %instr fsub f, f, f (double) {$1 = $2 - $3;} [FPU1; FPU2;] (1,2,0)
    %instr fneg f, f (double) {$1 = -$2;} [FPU1;] (1,1,0)
    %instr fmul f, f, f (double) {$1 = $2 * $3;} [FPU1; FPU2;] (1,2,0)
    %instr fdiv f, f, f (double) {$1 = $2 / $3;} [FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD;] (1,17,0)
    %instr fmas f, f, f, f (float) {$1 = $2 + $3 * $4;} [FPU1; FPU2;] (1,2,0)
    %instr fadds f, f, f (float) {$1 = $2 + $3;} [FPU1; FPU2;] (1,2,0)
    %instr fsubs f, f, f (float) {$1 = $2 - $3;} [FPU1; FPU2;] (1,2,0)
    %instr fnegs f, f (float) {$1 = -$2;} [FPU1;] (1,1,0)
    %instr fmuls f, f, f (float) {$1 = $2 * $3;} [FPU1; FPU2;] (1,2,0)
    %instr fdivs f, f, f (float) {$1 = $2 / $3;} [FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD;] (1,10,0)
    %instr fcmpu r, f, f (int) {$1 = $2 :: $3;} [FPU1; FPU2;] (1,2,0)
    %instr fcmps r, f, f (int) {$1 = $2 :: $3;} [FPU1; FPU2;] (1,2,0)

    /* ---------------- conversions ---------------- */
    %instr cvt.w r, r (int) {$1 = (int)$2;} [] (0,0,0)
    %instr fcfid f, r (double) {$1 = (double)$2;} [FPU1; FPU2;] (1,3,0)
    %instr fctiw r, f (int) {$1 = (int)$2;} [FPU1; FPU2;] (1,3,0)
    %instr fcfis f, r (float) {$1 = (float)$2;} [FPU1; FPU2;] (1,3,0)
    %instr fctis r, f (int) {$1 = (int)$2;} [FPU1; FPU2;] (1,3,0)
    %instr frsp f, f (float) {$1 = (float)$2;} [FPU1;] (1,1,0)
    %instr fexd f, f (double) {$1 = (double)$2;} [] (0,0,0)
    %instr *cvt8 r, r (char) {$1 = (char)$2;} [] (0,0,0)
    %instr *cvt16 r, r (short) {$1 = (short)$2;} [] (0,0,0)

    /* ------------- branch unit: no delay slots ------------- */
    %instr beq0 r, #rel {if ($1 == 0) goto $2;} [BRU;] (1,1,0)
    %instr bne0 r, #rel {if ($1 != 0) goto $2;} [BRU;] (1,1,0)
    %instr blt0 r, #rel {if ($1 < 0) goto $2;} [BRU;] (1,1,0)
    %instr ble0 r, #rel {if ($1 <= 0) goto $2;} [BRU;] (1,1,0)
    %instr bgt0 r, #rel {if ($1 > 0) goto $2;} [BRU;] (1,1,0)
    %instr bge0 r, #rel {if ($1 >= 0) goto $2;} [BRU;] (1,1,0)
    %instr b #rel {goto $1;} [BRU;] (1,1,0)
    %instr bl #rel {call $1;} [BRU;] (1,1,0)
    %instr blr {return;} [BRU;] (1,1,0)
    %instr nop {} [FXU;] (1,1,0)

    /* ---------------- moves ---------------- */
    %move mr r, r, r[0] {$1 = $2;} [FXU;] (1,1,0)
    %move fmr f, f (double) {$1 = $2;} [FPU1;] (1,1,0)

    /* ---------------- aux latencies ---------------- */
    %aux lfd : stfd (1.$1 == 2.$1) (3)
    %aux fadd : stfd (1.$1 == 2.$1) (3)
    %aux fma : stfd (1.$1 == 2.$1) (3)

    /* ---------------- glue ---------------- */
    %glue r, r {($1 == $2) ==> (($1 :: $2) == 0);}
    %glue r, r {($1 != $2) ==> (($1 :: $2) != 0);}
    %glue r, r {($1 < $2) ==> (($1 :: $2) < 0);}
    %glue r, r {($1 <= $2) ==> (($1 :: $2) <= 0);}
    %glue f, f {($1 == $2) ==> (($1 :: $2) == 0);}
    %glue f, f {($1 != $2) ==> (($1 :: $2) != 0);}
    %glue f, f {($1 < $2) ==> (($1 :: $2) < 0);}
    %glue f, f {($1 <= $2) ==> (($1 :: $2) <= 0);}
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use marion_core::{Compiler, StrategyKind};

    #[test]
    fn parses_with_expected_shape() {
        let m = load();
        assert_eq!(m.stats().clocks, 0, "no EAPs on the RS/6000");
        assert_eq!(m.stats().classes, 0);
        let f = m.reg_class_by_name("f").unwrap();
        assert_eq!(m.reg_class(f).unit_width, 2, "64-bit fp registers");
        // fp and integer unit spaces are disjoint — no pairs.
        let r = m.reg_class_by_name("r").unwrap();
        assert!(!m.regs_overlap(
            marion_maril::PhysReg::new(f, 0),
            marion_maril::PhysReg::new(r, 0)
        ));
        let b = m.template_by_mnemonic("beq0").unwrap();
        assert_eq!(m.template(b).slots, 0, "no branch delay slots");
    }

    #[test]
    fn fma_selected_over_mul_plus_add() {
        let spec = spec();
        let src = "double a, b, c, d;
                   void f() { d = a + b * c; }";
        let module = marion_frontend::compile(src).unwrap();
        let compiler = Compiler::new(
            spec.machine.clone(),
            spec.escapes.clone(),
            StrategyKind::Postpass,
        );
        let program = compiler.compile_module(&module).unwrap();
        let mnems: Vec<&str> = program
            .asm
            .func("f")
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| b.words())
            .flat_map(|w| w.insts())
            .map(|i| spec.machine.template(i.template).mnemonic.as_str())
            .collect();
        assert!(mnems.contains(&"fma"), "{mnems:?}");
        assert!(!mnems.contains(&"fmul"), "{mnems:?}");
        assert!(!mnems.contains(&"fadd"), "{mnems:?}");
    }

    #[test]
    fn functional_units_issue_in_parallel() {
        // An FXU op, an FPU op and a load have disjoint resources; the
        // scheduler should pack independent ones into the same cycle.
        let spec = spec();
        let src = "double x[16]; double s;
                   int f(int a, int b) {
                       s = s * 1.5;
                       return a + b;
                   }";
        let module = marion_frontend::compile(src).unwrap();
        let compiler = Compiler::new(
            spec.machine.clone(),
            spec.escapes.clone(),
            StrategyKind::Postpass,
        );
        let program = compiler.compile_module(&module).unwrap();
        let packed = program
            .asm
            .func("f")
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| b.words())
            .any(|w| w.len() > 1);
        assert!(
            packed,
            "expected multi-unit issue:\n{}",
            program.render(&spec.machine)
        );
    }
}
