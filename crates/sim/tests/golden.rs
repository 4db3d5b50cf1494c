//! Cycle-exact pins: the whole `RunResult` of a fixed set of runs —
//! cycles, words, instructions, stall and miss cycles, nops, both
//! result registers, block counts and the final memory image — over
//! all five machines × three strategies, compared exactly against
//! values recorded before the simulator's decode-once rework.
//!
//! A mismatch means the simulator's timing or functional model
//! changed. If that is intended, regenerate the table from the
//! failure message and justify the new numbers in the same change.

use marion_core::{AsmBlock, AsmInst, CompiledProgram, Compiler, ImmVal, Operand, StrategyKind};
use marion_ir::SymbolId;
use marion_machines::{load, load_extended, MachineSpec};
use marion_maril::{PhysReg, TemplateId, Ty};
use marion_sim::{run_program, CacheConfig, RunResult, SimConfig, Simulator, Value};

/// An LL1-style hydro fragment: on the i860 the double multiplies and
/// adds run through the explicitly advanced pipelines.
const HYDRO: &str = "double x[48], y[48], z[48];
    int main() {
        int k; double q = 0.5, r = 1.25, t = 0.75, s = 0.0;
        for (k = 0; k < 48; k++) { y[k] = k * 0.5; z[k] = 2.0 - k * 0.25; }
        for (k = 0; k < 40; k++) x[k] = q + y[k] * (r * z[k + 5] + t * z[k + 6]);
        for (k = 0; k < 40; k++) s = s + x[k];
        return (int)(s * 8.0);
    }";

/// Call-heavy: recursion, argument passing and a double-returning
/// callee, so calls and returns redirect through their delay slots.
const CALLS: &str = "int gcd(int a, int b) { if (b == 0) return a; return gcd(b, a % b); }
    int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
    double scale(double v, int k) { return v * k + 0.5; }
    int main() {
        int i, s = 0; double d = 0.0;
        for (i = 1; i < 8; i++) { s += gcd(i * 21, 84) + fib(i); d = scale(d, i); }
        return s * 100 + fib(9) + (int)d;
    }";

/// Narrow and wide memory traffic: bytes, halfwords, words through
/// pointers, and a sort whose stores depend on its loads.
const MEMORY: &str = "char cb[24]; short sb[24]; int a[32];
    void swap(int *p, int *q) { int t = *p; *p = *q; *q = t; }
    int main() {
        int i, j, s = 0;
        for (i = 0; i < 32; i++) a[i] = (i * 37) % 32;
        for (i = 0; i < 32; i++)
            for (j = 31; j > i; j--)
                if (a[j] < a[j - 1]) swap(&a[j], &a[j - 1]);
        for (i = 0; i < 24; i++) { cb[i] = (char)(i * 53); sb[i] = (short)(i * 3001); }
        for (i = 0; i < 24; i++) s += cb[i] + sb[i] + a[i];
        return s;
    }";

/// Single-precision values in memory and through calls.
const FLOATS: &str = "float f[16];
    float frac(float a, int b) { return a / b; }
    int main() {
        int i; float s = 0.0;
        for (i = 1; i <= 16; i++) { f[i - 1] = frac(1.0, i); s += f[i - 1]; }
        return (int)(s * 10000.0);
    }";

const PROGRAMS: [(&str, &str); 4] = [
    ("hydro", HYDRO),
    ("calls", CALLS),
    ("memory", MEMORY),
    ("floats", FLOATS),
];

/// Pinned results, one line per run: `program machine strategy config:
/// fields`. Recorded from the simulator as it stood before the
/// decode-once rework.
const GOLDEN: &str = "
    hydro toyp Postpass default: cycles=10219 words=5005 insts=5005 stall=5214 miss=84 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.03124973206)) blocks=14:900120e1eb0132d4 mem=d4debe62f5c21d59
    calls toyp Postpass default: cycles=6220 words=5800 insts=5800 stall=420 miss=66 nops=829 result=Some(I(32864)) fp=Some(F(4330.00000002989)) blocks=16:89f4e3f168de9e8c mem=7b64df5bab862a3b
    memory toyp Postpass default: cycles=28809 words=21371 insts=21371 stall=7438 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(7.320885467279e-311)) blocks=26:cabebc4c97004497 mem=e7a6bb2a446e67d0
    floats toyp Postpass default: cycles=1583 words=814 insts=814 stall=769 miss=42 nops=51 result=Some(I(33807)) fp=Some(F(33807.28125024598)) blocks=8:1669c87017462815 mem=e02b9f6596849098
    hydro toyp IPS default: cycles=9595 words=4829 insts=4829 stall=4766 miss=84 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.03124973206)) blocks=14:900120e1eb0132d4 mem=cb4475e0aec9fbc4
    calls toyp IPS default: cycles=5929 words=5427 insts=5427 stall=502 miss=66 nops=807 result=Some(I(32864)) fp=Some(F(9.1882417911166e-311)) blocks=16:89f4e3f168de9e8c mem=6c3008a8d5cecbe6
    memory toyp IPS default: cycles=33591 words=24539 insts=24539 stall=9052 miss=72 nops=2405 result=Some(I(-23380)) fp=Some(F(7.320885467279e-311)) blocks=26:cabebc4c97004497 mem=fc6814370d58b53a
    floats toyp IPS default: cycles=1910 words=990 insts=990 stall=920 miss=54 nops=51 result=Some(I(33807)) fp=Some(F(33807.28125024598)) blocks=8:1669c87017462815 mem=73cbaed2fdc7176d
    hydro toyp RASE default: cycles=11015 words=5519 insts=5519 stall=5496 miss=90 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.03124973206)) blocks=14:900120e1eb0132d4 mem=d8e8615ac043f8e9
    calls toyp RASE default: cycles=5929 words=5427 insts=5427 stall=502 miss=66 nops=807 result=Some(I(32864)) fp=Some(F(9.1882417911166e-311)) blocks=16:89f4e3f168de9e8c mem=6c3008a8d5cecbe6
    memory toyp RASE default: cycles=29257 words=21482 insts=21482 stall=7775 miss=72 nops=2405 result=Some(I(-23380)) fp=Some(F(5.3049883223e-313)) blocks=26:cabebc4c97004497 mem=cfe9c8ac92cf9111
    floats toyp RASE default: cycles=1910 words=990 insts=990 stall=920 miss=54 nops=51 result=Some(I(33807)) fp=Some(F(33807.28125024598)) blocks=8:1669c87017462815 mem=73cbaed2fdc7176d
    hydro r2000 Postpass default: cycles=5989 words=3341 insts=3565 stall=2648 miss=66 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.0)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls r2000 Postpass default: cycles=6213 words=5579 insts=5622 stall=634 miss=54 nops=807 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=1baf5b86cbe36855
    memory r2000 Postpass default: cycles=36661 words=20707 insts=20707 stall=15954 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=27b94f2806e20338
    floats r2000 Postpass default: cycles=969 words=523 insts=556 stall=446 miss=36 nops=51 result=Some(I(33807)) fp=Some(F(33807.289600372314)) blocks=8:1669c87017462815 mem=ec2c7bf7985d4ea0
    hydro r2000 IPS default: cycles=4977 words=3381 insts=3565 stall=1596 miss=66 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.0)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls r2000 IPS default: cycles=5794 words=5170 insts=5206 stall=624 miss=54 nops=807 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=8f2221e477832d13
    memory r2000 IPS default: cycles=34413 words=20707 insts=20707 stall=13706 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=27b94f2806e20338
    floats r2000 IPS default: cycles=969 words=523 insts=556 stall=446 miss=36 nops=51 result=Some(I(33807)) fp=Some(F(33807.289600372314)) blocks=8:1669c87017462815 mem=ec2c7bf7985d4ea0
    hydro r2000 RASE default: cycles=4981 words=3469 insts=3565 stall=1512 miss=72 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.0)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls r2000 RASE default: cycles=5794 words=5170 insts=5206 stall=624 miss=54 nops=807 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=8f2221e477832d13
    memory r2000 RASE default: cycles=34413 words=20707 insts=20707 stall=13706 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=27b94f2806e20338
    floats r2000 RASE default: cycles=969 words=523 insts=556 stall=446 miss=36 nops=51 result=Some(I(33807)) fp=Some(F(33807.289600372314)) blocks=8:1669c87017462815 mem=ec2c7bf7985d4ea0
    hydro m88k Postpass default: cycles=5286 words=3177 insts=3579 stall=2109 miss=72 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.03124973206)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls m88k Postpass default: cycles=7194 words=6078 insts=6094 stall=1116 miss=60 nops=829 result=Some(I(32864)) fp=Some(F(6.054902791564e-310)) blocks=16:89f4e3f168de9e8c mem=6687b43144dfb7ff
    memory m88k Postpass default: cycles=26225 words=19939 insts=20711 stall=6286 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(2.90713411811e-312)) blocks=26:cabebc4c97004497 mem=8ad2d4c102602e59
    floats m88k Postpass default: cycles=1105 words=614 insts=632 stall=491 miss=42 nops=51 result=Some(I(33807)) fp=Some(F(33807.28125024598)) blocks=8:1669c87017462815 mem=80f588a6c00564d0
    hydro m88k IPS default: cycles=4790 words=3180 insts=3581 stall=1610 miss=72 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.03124973206)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls m88k IPS default: cycles=6775 words=5662 insts=5678 stall=1113 miss=60 nops=829 result=Some(I(32864)) fp=Some(F(9.1882417911166e-311)) blocks=16:89f4e3f168de9e8c mem=8e6b8f40914266ad
    memory m88k IPS default: cycles=25705 words=19939 insts=20711 stall=5766 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(7.2720795640867e-311)) blocks=26:cabebc4c97004497 mem=8ad2d4c102602e59
    floats m88k IPS default: cycles=1089 words=598 insts=632 stall=491 miss=42 nops=51 result=Some(I(33807)) fp=Some(F(33807.28125024598)) blocks=8:1669c87017462815 mem=aa421971b27fe633
    hydro m88k RASE default: cycles=4790 words=3180 insts=3581 stall=1610 miss=72 nops=135 result=Some(I(-36825)) fp=Some(F(-36825.03124973206)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls m88k RASE default: cycles=6775 words=5662 insts=5678 stall=1113 miss=60 nops=829 result=Some(I(32864)) fp=Some(F(9.1882417911166e-311)) blocks=16:89f4e3f168de9e8c mem=8e6b8f40914266ad
    memory m88k RASE default: cycles=25705 words=19939 insts=20711 stall=5766 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(7.2720795640867e-311)) blocks=26:cabebc4c97004497 mem=8ad2d4c102602e59
    floats m88k RASE default: cycles=1089 words=598 insts=632 stall=491 miss=42 nops=51 result=Some(I(33807)) fp=Some(F(33807.28125024598)) blocks=8:1669c87017462815 mem=aa421971b27fe633
    hydro i860 Postpass default: cycles=6044 words=4420 insts=4636 stall=1624 miss=78 nops=135 result=Some(I(-36825)) fp=Some(F(-4603.125)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls i860 Postpass default: cycles=6336 words=5643 insts=5679 stall=693 miss=60 nops=807 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=60ad1d6c0dbfe433
    memory i860 Postpass default: cycles=35385 words=20707 insts=20707 stall=14678 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=27b94f2806e20338
    floats i860 Postpass default: cycles=1112 words=526 insts=559 stall=586 miss=36 nops=51 result=Some(I(33807)) fp=Some(F(3.3807289600372314)) blocks=8:1669c87017462815 mem=baab4fee54c1d58f
    hydro i860 IPS default: cycles=5886 words=3988 insts=4636 stall=1898 miss=72 nops=135 result=Some(I(-36825)) fp=Some(F(-4603.125)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls i860 IPS default: cycles=5912 words=5227 insts=5263 stall=685 miss=54 nops=807 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=8f39b8fdab9c3ab3
    memory i860 IPS default: cycles=35361 words=20707 insts=20707 stall=14654 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=27b94f2806e20338
    floats i860 IPS default: cycles=1112 words=526 insts=559 stall=586 miss=36 nops=51 result=Some(I(33807)) fp=Some(F(3.3807289600372314)) blocks=8:1669c87017462815 mem=baab4fee54c1d58f
    hydro i860 RASE default: cycles=5886 words=3988 insts=4636 stall=1898 miss=72 nops=135 result=Some(I(-36825)) fp=Some(F(-4603.125)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls i860 RASE default: cycles=5912 words=5227 insts=5263 stall=685 miss=54 nops=807 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=8f39b8fdab9c3ab3
    memory i860 RASE default: cycles=35361 words=20707 insts=20707 stall=14654 miss=66 nops=2405 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=27b94f2806e20338
    floats i860 RASE default: cycles=1112 words=526 insts=559 stall=586 miss=36 nops=51 result=Some(I(33807)) fp=Some(F(3.3807289600372314)) blocks=8:1669c87017462815 mem=baab4fee54c1d58f
    hydro rs6000 Postpass default: cycles=3526 words=2946 insts=3298 stall=580 miss=60 nops=0 result=Some(I(-36825)) fp=Some(F(-36825.0)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls rs6000 Postpass default: cycles=4980 words=4649 insts=4793 stall=331 miss=48 nops=0 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=78349b58a1b0e2e6
    memory rs6000 Postpass default: cycles=21747 words=17457 insts=18302 stall=4290 miss=54 nops=0 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=0ed5f4d9b6a97131
    floats rs6000 Postpass default: cycles=714 words=456 insts=504 stall=258 miss=30 nops=0 result=Some(I(33807)) fp=Some(F(33807.289600372314)) blocks=8:1669c87017462815 mem=3ec59d8d7d525166
    hydro rs6000 IPS default: cycles=3112 words=2906 insts=3298 stall=206 miss=60 nops=0 result=Some(I(-36825)) fp=Some(F(-36825.0)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls rs6000 IPS default: cycles=4526 words=4204 insts=4377 stall=322 miss=42 nops=0 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=fd8faabc1702ae76
    memory rs6000 IPS default: cycles=18519 words=17457 insts=18302 stall=1062 miss=54 nops=0 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=0ed5f4d9b6a97131
    floats rs6000 IPS default: cycles=714 words=456 insts=504 stall=258 miss=30 nops=0 result=Some(I(33807)) fp=Some(F(33807.289600372314)) blocks=8:1669c87017462815 mem=3ec59d8d7d525166
    hydro rs6000 RASE default: cycles=3112 words=2906 insts=3298 stall=206 miss=60 nops=0 result=Some(I(-36825)) fp=Some(F(-36825.0)) blocks=14:900120e1eb0132d4 mem=9e82146cc39ba3dd
    calls rs6000 RASE default: cycles=4526 words=4204 insts=4377 stall=322 miss=42 nops=0 result=Some(I(32864)) fp=Some(F(4330.0)) blocks=16:89f4e3f168de9e8c mem=fd8faabc1702ae76
    memory rs6000 RASE default: cycles=18519 words=17457 insts=18302 stall=1062 miss=54 nops=0 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=0ed5f4d9b6a97131
    floats rs6000 RASE default: cycles=714 words=456 insts=504 stall=258 miss=30 nops=0 result=Some(I(33807)) fp=Some(F(33807.289600372314)) blocks=8:1669c87017462815 mem=3ec59d8d7d525166
    memory r2000 Postpass no_caches: cycles=36595 words=20707 insts=20707 stall=15888 miss=0 nops=2405 result=Some(I(-23380)) fp=Some(F(0.0)) blocks=26:cabebc4c97004497 mem=27b94f2806e20338
    memory m88k IPS odd_caches: cycles=25709 words=19939 insts=20711 stall=5770 miss=70 nops=2405 result=Some(I(-23380)) fp=Some(F(7.2720795640867e-311)) blocks=26:cabebc4c97004497 mem=8ad2d4c102602e59
    scale toyp RASE args: cycles=66 words=22 insts=22 stall=44 miss=18 nops=1 result=Some(I(4)) fp=Some(F(10.500000000000007)) blocks=2:0fec32f1af838144 mem=d4f2259975e05a35
    alias r2000-longdiv handmade no_caches: cycles=69 words=69 insts=70 stall=0 miss=0 nops=64 result=Some(I(7)) fp=Some(F(0.0)) blocks=2:cb48303282086484 mem=7ab6a128b6a22325
";

fn compile(spec: &MachineSpec, strategy: StrategyKind, src: &str) -> CompiledProgram {
    let module = marion_frontend::compile(src).expect("front end");
    Compiler::new(spec.machine.clone(), spec.escapes.clone(), strategy)
        .compile_module(&module)
        .unwrap_or_else(|e| panic!("{} / {strategy}: {e}", spec.machine.name()))
}

fn keep(config: SimConfig) -> SimConfig {
    SimConfig {
        keep_memory: true,
        ..config
    }
}

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every `RunResult` field, block counts sorted and hashed, memory
/// hashed.
fn digest(run: &RunResult) -> String {
    let mut blocks: Vec<_> = run.block_counts.iter().map(|(k, v)| (*k, *v)).collect();
    blocks.sort_unstable();
    let block_bytes = blocks.iter().flat_map(|((f, b), n)| {
        [*f as u64, *b as u64, *n]
            .into_iter()
            .flat_map(|x| x.to_le_bytes())
    });
    let mem = run.memory.as_ref().map_or("none".to_string(), |m| {
        format!("{:016x}", fnv(m.iter().copied()))
    });
    format!(
        "cycles={} words={} insts={} stall={} miss={} nops={} result={:?} fp={:?} blocks={}:{:016x} mem={}",
        run.cycles,
        run.words_executed,
        run.insts_executed,
        run.stall_cycles,
        run.miss_cycles,
        run.nops_retired,
        run.result,
        run.fp_result,
        blocks.len(),
        fnv(block_bytes),
        mem
    )
}

fn main_run(spec: &MachineSpec, program: &CompiledProgram, config: &SimConfig) -> RunResult {
    run_program(&spec.machine, program, "main", &[], Some(Ty::Int), config)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.machine.name()))
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for spec in load_extended() {
        for strategy in StrategyKind::ALL {
            for (name, src) in PROGRAMS {
                let program = compile(&spec, strategy, src);
                let run = main_run(&spec, &program, &keep(SimConfig::default()));
                lines.push(format!(
                    "{name} {} {strategy} default: {}",
                    spec.machine.name(),
                    digest(&run)
                ));
            }
        }
    }
    // No caches: cycles are interlocks and structural hazards only.
    let r2000 = load("r2000");
    let program = compile(&r2000, StrategyKind::Postpass, MEMORY);
    let run = main_run(&r2000, &program, &keep(SimConfig::no_caches()));
    lines.push(format!("memory r2000 Postpass no_caches: {}", digest(&run)));
    // Cache geometry that is not a power of two in either dimension.
    let odd = CacheConfig {
        lines: 48,
        line_bytes: 12,
        miss_penalty: 5,
    };
    let m88k = load("m88k");
    let program = compile(&m88k, StrategyKind::Ips, MEMORY);
    let config = keep(SimConfig {
        icache: Some(odd),
        dcache: Some(odd),
        ..SimConfig::default()
    });
    let run = main_run(&m88k, &program, &config);
    lines.push(format!("memory m88k IPS odd_caches: {}", digest(&run)));
    // A non-`main` entry with integer and floating arguments.
    let toyp = load("toyp");
    let program = compile(&toyp, StrategyKind::Rase, CALLS);
    let run = Simulator::new(&toyp.machine, &program)
        .run(
            "scale",
            &[Value::F(2.5), Value::I(4)],
            &keep(SimConfig::default()),
        )
        .expect("scale runs");
    lines.push(format!("scale toyp RASE args: {}", digest(&run)));
    // Reservations longer than the 64-cycle resource window, in a word
    // that packs one with another sub-operation.
    let spec = long_divide_r2000();
    let program = window_alias(&spec);
    let run = main_run(&spec, &program, &keep(SimConfig::no_caches()));
    lines.push(format!(
        "alias r2000-longdiv handmade no_caches: {}",
        digest(&run)
    ));
    lines
}

/// `main` prefixed with a word packing `div.d` (70 cycles of the
/// divider) with `li`, 63 `nop`s, then a `div.s`. The word's cycle-0
/// and cycle-64 reservations share a window slot; which one the slot
/// keeps decides whether the `div.s` stalls.
fn window_alias(spec: &MachineSpec) -> CompiledProgram {
    let m = &spec.machine;
    let mut program = compile(spec, StrategyKind::Postpass, "int main() { return 7; }");
    let inst =
        |name: &str, ops: Vec<Operand>| (m.template_by_mnemonic(name).expect("template"), ops);
    let reg = |class: &str, i: u32| {
        Operand::Phys(PhysReg::new(m.reg_class_by_name(class).expect("class"), i))
    };
    let mut words = vec![vec![
        inst("div.d", vec![reg("d", 1), reg("d", 2), reg("d", 3)]),
        inst(
            "li",
            vec![reg("r", 8), reg("r", 0), Operand::Imm(ImmVal::Const(1))],
        ),
    ]];
    words.extend((0..63).map(|_| vec![inst("nop", vec![])]));
    words.push(vec![inst(
        "div.s",
        vec![reg("f", 10), reg("f", 12), reg("f", 14)],
    )]);
    let main = program.asm.funcs.iter_mut().find(|f| f.name == "main");
    let block = &mut main.expect("main").blocks_mut()[0];
    let prefix = words.iter().map(|w| {
        w.iter()
            .map(|(template, ops)| AsmInst {
                template: *template,
                ops,
            })
            .collect::<Vec<_>>()
    });
    *block = AsmBlock::from_words(
        block.est_cycles,
        prefix.chain(block.words().map(|w| w.insts().collect())),
    );
    program
}

/// The r2000 with `div.d` holding the fp divider for 70 cycles.
fn long_divide_r2000() -> MachineSpec {
    let twelve = "[FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD; FPD;] (1,19,0)";
    let long = format!("[{}] (1,72,0)", "FPD; ".repeat(70).trim_end());
    let line = |r: &str| format!("%instr div.d d, d, d (double) {{$1 = $2 / $3;}} {r}");
    let text = marion_machines::r2000::text().replace(&line(twelve), &line(&long));
    assert_ne!(text, marion_machines::r2000::text(), "div.d not found");
    MachineSpec {
        machine: marion_maril::Machine::parse("r2000-longdiv", &text).expect("parses"),
        escapes: marion_machines::r2000::escapes(),
    }
}

#[test]
fn run_results_match_the_pinned_table() {
    let actual = actual_lines();
    let expected: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mismatches: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|(i, line)| expected.get(*i) != Some(&line.as_str()))
        .map(|(i, line)| {
            format!(
                "  expected {}\n  actual   {line}",
                expected.get(i).unwrap_or(&"<missing>")
            )
        })
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "{} of {} runs differ ({} pinned):\n{}\nfull actual table:\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}

#[test]
fn the_hydro_kernel_exercises_i860_pipelines_and_packing() {
    let spec = load("i860");
    let program = compile(&spec, StrategyKind::Postpass, HYDRO);
    let insts: Vec<AsmInst> = program
        .asm
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.words())
        .flat_map(|w| w.insts())
        .collect();
    assert!(
        insts
            .iter()
            .any(|i| spec.machine.template(i.template).affects_clock.is_some()),
        "no EAP sub-operation in the hydro kernel"
    );
    let run = main_run(&spec, &program, &SimConfig::default());
    assert!(
        run.insts_executed > run.words_executed,
        "no packed words ran"
    );
}

/// Replaces every operand of every instruction in block `(f, b)` with
/// a symbol address the loader cannot resolve, and the block's last
/// instruction's template with one the machine does not have.
fn poison_block(program: &mut CompiledProgram, f: usize, b: usize) {
    let bad = Operand::Imm(ImmVal::Sym(SymbolId(u32::MAX), 0));
    let block = &mut program.asm.funcs[f].blocks_mut()[b];
    for (_, ops) in block.insts_mut() {
        for op in ops {
            *op = bad;
        }
    }
    let last = block.insts_mut().last();
    *last.expect("a non-empty block").0 = TemplateId(u32::MAX);
}

#[test]
fn faults_in_words_that_never_execute_stay_latent() {
    let src = "int g;
        int main() {
            int i, s = 0;
            for (i = 0; i < 10; i++) { if (g > 100) s -= i * 7; else s += i; }
            return s;
        }";
    for machine in ["r2000", "i860"] {
        let spec = load(machine);
        let program = compile(&spec, StrategyKind::Postpass, src);
        let clean = main_run(&spec, &program, &keep(SimConfig::default()));
        let blocks: Vec<(usize, usize)> = program
            .asm
            .funcs
            .iter()
            .enumerate()
            .flat_map(|(f, func)| {
                func.blocks
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.words().any(|w| !w.is_empty()))
                    .map(move |(b, _)| (f, b))
            })
            .collect();
        let dead = blocks
            .iter()
            .find(|k| !clean.block_counts.contains_key(k))
            .copied()
            .expect("the `g > 100` arm never runs");
        let mut poisoned = program.clone();
        poison_block(&mut poisoned, dead.0, dead.1);
        let run = main_run(&spec, &poisoned, &keep(SimConfig::default()));
        assert_eq!(
            digest(&run),
            digest(&clean),
            "{machine}: latent fault changed the run"
        );
        // The same poison in a block that does run is a fault.
        let live = blocks
            .iter()
            .find(|k| clean.block_counts.contains_key(k))
            .copied()
            .expect("some block runs");
        let mut poisoned = program.clone();
        poison_block(&mut poisoned, live.0, live.1);
        let err = run_program(
            &spec.machine,
            &poisoned,
            "main",
            &[],
            Some(Ty::Int),
            &SimConfig::default(),
        );
        assert!(err.is_err(), "{machine}: poisoned live block ran");
    }
}

/// Compiles `MEMORY` for the r2000, then rewrites operand `$k` of every
/// `mnemonic` instruction to the single-precision register `f2`.
fn r2000_with_float_operand(mnemonic: &str, k: usize) -> (MachineSpec, CompiledProgram) {
    let spec = load("r2000");
    let mut program = compile(&spec, StrategyKind::Postpass, MEMORY);
    let template = spec
        .machine
        .template_by_mnemonic(mnemonic)
        .expect("template");
    let f = spec.machine.reg_class_by_name("f").expect("fp class");
    let mut rewritten = 0;
    for (_, ops) in program
        .asm
        .funcs
        .iter_mut()
        .flat_map(|f| f.blocks_mut())
        .flat_map(|b| b.insts_mut())
        .filter(|(t, _)| **t == template)
    {
        ops[k - 1] = Operand::Phys(PhysReg::new(f, 2));
        rewritten += 1;
    }
    assert!(rewritten > 0, "no `{mnemonic}` in the program");
    (spec, program)
}

#[test]
fn a_float_where_an_integer_belongs_is_a_fault_not_a_panic() {
    // `sw` storing a floating register: the store's value has the
    // wrong kind for its width.
    let (spec, program) = r2000_with_float_operand("sw", 1);
    let run = run_program(
        &spec.machine,
        &program,
        "main",
        &[],
        Some(Ty::Int),
        &SimConfig::default(),
    );
    let err = run.expect_err("float stored by `sw`");
    assert!(err.0.contains("store of F("), "{err}");
    // `lw` whose base register is floating: the address arithmetic
    // mixes kinds.
    let (spec, program) = r2000_with_float_operand("lw", 2);
    let run = run_program(
        &spec.machine,
        &program,
        "main",
        &[],
        Some(Ty::Int),
        &SimConfig::default(),
    );
    let err = run.expect_err("float address in `lw`");
    assert!(err.0.contains("mixed int/float"), "{err}");
}
