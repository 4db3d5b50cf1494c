//! The simulated register file, at register-unit granularity.
//!
//! `%equiv` overlays mean one architectural value can span several
//! 32-bit units (a TOYP double covers two integer registers); storing
//! per-unit words makes aliasing exact: writing `d1` changes what
//! `r2`/`r3` read and vice versa, and `*func` half-moves are raw
//! 32-bit copies.

use marion_ir::interp::Value;
use marion_maril::{Machine, PhysReg};

/// A register as the simulator addresses it: its contiguous unit
/// range and whether its class holds floating values. Decoded once per
/// operand when a program is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSlot {
    /// First register unit.
    pub start: u32,
    /// Number of units (1 for a 32-bit register, 2 for a pair).
    pub width: u32,
    /// The register's class holds only floating types.
    pub fp: bool,
}

impl RegSlot {
    /// The slot of `reg`, or `None` when its class or units lie outside
    /// `machine`'s register file.
    pub fn of(machine: &Machine, reg: PhysReg) -> Option<RegSlot> {
        let class = machine.reg_classes().get(reg.class.0 as usize)?;
        let start = class
            .unit_base
            .checked_add(reg.index.checked_mul(class.unit_stride)?)?;
        let end = start.checked_add(class.unit_width)?;
        (end <= machine.unit_count()).then(|| RegSlot {
            start,
            width: class.unit_width,
            fp: class.tys.iter().all(|t| t.is_float()),
        })
    }
}

/// The register file: one 32-bit word per register unit, plus the
/// temporal latches of explicitly advanced pipelines.
#[derive(Debug, Clone)]
pub struct RegFile {
    units: Vec<u32>,
    latches: Vec<f64>,
}

impl RegFile {
    /// Creates a zeroed register file for `machine`.
    pub fn new(machine: &Machine) -> RegFile {
        RegFile {
            units: vec![0; machine.unit_count() as usize],
            latches: vec![0.0; machine.temporals().len()],
        }
    }

    /// Reads a register as a typed value. Width-1 fp registers hold
    /// f32 bits; width-2 fp registers hold f64 bits; integer registers
    /// hold i32. Wide integer registers are only used for doubles
    /// stored in general register pairs.
    pub fn get(&self, reg: RegSlot) -> Value {
        let s = reg.start as usize;
        let lo = self.units[s];
        match (reg.width, reg.fp) {
            (1, true) => Value::F(f32::from_bits(lo) as f64),
            (1, false) => Value::I(lo as i32 as i64),
            _ => Value::F(f64::from_bits((self.units[s + 1] as u64) << 32 | lo as u64)),
        }
    }

    /// Writes a typed value to a register.
    pub fn set(&mut self, reg: RegSlot, value: Value) {
        let s = reg.start as usize;
        match (reg.width, value) {
            (1, Value::I(v)) => self.units[s] = v as u32,
            (1, Value::F(v)) => self.units[s] = (v as f32).to_bits(),
            (_, Value::F(v)) => {
                let bits = v.to_bits();
                self.units[s] = bits as u32;
                self.units[s + 1] = (bits >> 32) as u32;
            }
            (_, Value::I(v)) => {
                self.units[s] = v as u32;
                self.units[s + 1] = (v >> 32) as u32;
            }
        }
    }

    /// Reads `reg` of `machine` (see [`RegFile::get`]).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a register of `machine`.
    pub fn read(&self, machine: &Machine, reg: PhysReg) -> Value {
        self.get(RegSlot::of(machine, reg).expect("`reg` belongs to `machine`"))
    }

    /// Writes `reg` of `machine` (see [`RegFile::set`]).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a register of `machine`.
    pub fn write(&mut self, machine: &Machine, reg: PhysReg, value: Value) {
        self.set(
            RegSlot::of(machine, reg).expect("`reg` belongs to `machine`"),
            value,
        );
    }

    /// The raw word of one register unit (register moves copy these
    /// bit-exactly, even when a unit holds half of a double).
    pub fn unit(&self, unit: u32) -> u32 {
        self.units[unit as usize]
    }

    /// Overwrites the raw word of one register unit.
    pub fn set_unit(&mut self, unit: u32, word: u32) {
        self.units[unit as usize] = word;
    }

    /// Reads a temporal latch.
    pub fn read_latch(&self, id: usize) -> f64 {
        self.latches[id]
    }

    /// Writes a temporal latch.
    pub fn write_latch(&mut self, id: usize, value: f64) {
        self.latches[id] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_maril::Machine;

    fn toyp_like() -> Machine {
        Machine::parse(
            "t",
            r#"declare {
                %reg r[0:7] (int);
                %reg d[0:3] (double);
                %equiv r[0] d[0];
                %resource IF;
            }
            cwvm { %general (int) r; %general (double) d; }"#,
        )
        .unwrap()
    }

    #[test]
    fn aliasing_is_exact() {
        let m = toyp_like();
        let r = m.reg_class_by_name("r").unwrap();
        let d = m.reg_class_by_name("d").unwrap();
        let mut rf = RegFile::new(&m);
        rf.write(&m, PhysReg::new(d, 1), Value::F(1.5));
        // d1 overlays r2, r3: reading them gives the bit halves.
        let bits = 1.5f64.to_bits();
        assert_eq!(
            rf.read(&m, PhysReg::new(r, 2)),
            Value::I(bits as u32 as i32 as i64)
        );
        assert_eq!(
            rf.read(&m, PhysReg::new(r, 3)),
            Value::I((bits >> 32) as u32 as i32 as i64)
        );
        // Raw-copy both halves elsewhere and read back the double.
        let (r2, r4) = (
            RegSlot::of(&m, PhysReg::new(r, 2)).unwrap(),
            RegSlot::of(&m, PhysReg::new(r, 4)).unwrap(),
        );
        for i in 0..2 {
            rf.set_unit(r4.start + i, rf.unit(r2.start + i));
        }
        assert_eq!(rf.read(&m, PhysReg::new(d, 2)), Value::F(1.5));
    }

    #[test]
    fn slots_outside_the_register_file_do_not_decode() {
        let m = toyp_like();
        let d = m.reg_class_by_name("d").unwrap();
        assert_eq!(
            RegSlot::of(&m, PhysReg::new(d, 3)),
            Some(RegSlot {
                start: 6,
                width: 2,
                fp: true
            })
        );
        assert_eq!(RegSlot::of(&m, PhysReg::new(d, 4)), None);
        let no_class = marion_maril::RegClassId(9);
        assert_eq!(RegSlot::of(&m, PhysReg::new(no_class, 0)), None);
    }

    #[test]
    fn int_write_read_roundtrip() {
        let m = toyp_like();
        let r = m.reg_class_by_name("r").unwrap();
        let mut rf = RegFile::new(&m);
        rf.write(&m, PhysReg::new(r, 6), Value::I(-42));
        assert_eq!(rf.read(&m, PhysReg::new(r, 6)), Value::I(-42));
    }

    #[test]
    fn latches() {
        let m = Machine::parse(
            "t",
            r#"declare {
                %reg d[0:3] (double);
                %resource X;
                %clock k;
                %reg t1 (double; k) +temporal;
            }
            cwvm { %general (double) d; }"#,
        )
        .unwrap();
        let mut rf = RegFile::new(&m);
        rf.write_latch(0, 2.75);
        assert_eq!(rf.read_latch(0), 2.75);
    }
}
