//! Exactly defined workloads: symmetric functions, ones-counters, and a
//! compact ALU.

use pla::{Cube, OutputValue, Pla, Trit};

/// Builds a minterm-level PLA from an evaluator: `f(m)` returns the packed
/// output word for input minterm `m`. Rows whose outputs are all zero are
/// omitted (the `fd` remainder is the off-set).
///
/// Exponential in `num_inputs`; intended for `num_inputs ≤ 16`.
///
/// # Panics
///
/// Panics if `num_inputs > 16` or `num_outputs > 64`.
pub fn pla_from_fn(num_inputs: usize, num_outputs: usize, mut f: impl FnMut(u32) -> u64) -> Pla {
    assert!(num_inputs <= 16, "minterm enumeration limited to 16 inputs");
    assert!(num_outputs <= 64, "outputs are packed into a u64");
    let mut pla = Pla::new(num_inputs, num_outputs);
    for m in 0..1u32 << num_inputs {
        let out = f(m);
        if out == 0 {
            continue;
        }
        let inputs: Vec<Trit> = (0..num_inputs)
            .map(|k| if m & (1 << k) != 0 { Trit::One } else { Trit::Zero })
            .collect();
        let outputs: Vec<OutputValue> = (0..num_outputs)
            .map(|k| if out & (1 << k) != 0 { OutputValue::One } else { OutputValue::NotUsed })
            .collect();
        pla.push(Cube::new(&inputs, &outputs));
    }
    pla
}

/// Totally symmetric single-output function: `values[k]` is the output
/// when exactly `k` inputs are 1 (missing trailing entries default to 0).
///
/// # Panics
///
/// As [`pla_from_fn`].
pub fn symmetric_pla(num_inputs: usize, values: &[bool]) -> Pla {
    pla_from_fn(num_inputs, 1, |m| {
        let k = m.count_ones() as usize;
        u64::from(values.get(k).copied().unwrap_or(false))
    })
}

/// The rd-family ones-counter: `num_outputs` bits of the binary count of
/// ones of `num_inputs` inputs (rd73 = 7/3, rd84 = 8/4).
///
/// # Panics
///
/// As [`pla_from_fn`].
pub fn rate_pla(num_inputs: usize, num_outputs: usize) -> Pla {
    pla_from_fn(num_inputs, num_outputs, |m| u64::from(m.count_ones()) & ((1 << num_outputs) - 1))
}

/// A compact ALU in the spirit of the MCNC `alu2`/`alu4` benchmarks:
/// two `width`-bit operands plus control bits select among
/// add / subtract / AND / OR / XOR / NOR / shift / pass, producing the
/// result bits plus carry and zero flags.
///
/// `alu(2)` has 10 inputs and 6 outputs like alu2; `alu(5)` would exceed
/// the enumeration limit, so alu4's 14/8 shape uses `width = 5` operands
/// with a 4-bit opcode — see [`crate::by_name`].
///
/// # Panics
///
/// As [`pla_from_fn`].
pub fn alu(width: usize, opcode_bits: usize) -> Pla {
    let num_inputs = 2 * width + opcode_bits;
    let num_outputs = width + 3; // result, carry, zero, parity
    pla_from_fn(num_inputs, num_outputs, move |m| {
        let a = (m as u64) & ((1 << width) - 1);
        let b = ((m as u64) >> width) & ((1 << width) - 1);
        let op = ((m as u64) >> (2 * width)) & ((1 << opcode_bits) - 1);
        let mask = (1u64 << width) - 1;
        let (result, carry) = match op % 8 {
            0 => {
                let sum = a + b;
                (sum & mask, sum >> width & 1 != 0)
            }
            1 => {
                let diff = a.wrapping_sub(b);
                (diff & mask, a < b)
            }
            2 => (a & b, false),
            3 => (a | b, false),
            4 => (a ^ b, false),
            5 => (!(a | b) & mask, false),
            6 => ((a << 1) & mask, a >> (width - 1) & 1 != 0),
            _ => (a, false),
        };
        let zero = result == 0;
        let parity = result.count_ones() % 2 == 1;
        result
            | (u64::from(carry) << width)
            | (u64::from(zero) << (width + 1))
            | (u64::from(parity) << (width + 2))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_pla_matches_definition() {
        // 3-input majority.
        let pla = symmetric_pla(3, &[false, false, true, true]);
        assert_eq!(pla.eval(0, 0b110), Some(true));
        assert_eq!(pla.eval(0, 0b100), Some(false));
        assert_eq!(pla.eval(0, 0b111), Some(true));
        assert_eq!(pla.cubes().len(), 4, "minterm PLA of majority-3");
    }

    #[test]
    fn rate_pla_counts_ones() {
        let pla = rate_pla(7, 3);
        assert_eq!(pla.num_inputs(), 7);
        assert_eq!(pla.num_outputs(), 3);
        for m in [0u64, 0b1, 0b1010101, 0b1111111] {
            let count = (m.count_ones() & 0b111) as usize;
            for bit in 0..3 {
                let expected = count & (1 << bit) != 0;
                assert_eq!(pla.eval(bit, m), Some(expected), "m={m:b} bit={bit}");
            }
        }
    }

    #[test]
    fn alu_add_and_flags() {
        let width = 2;
        let pla = alu(width, 2); // 6 inputs, 5 outputs
        assert_eq!(pla.num_inputs(), 6);
        assert_eq!(pla.num_outputs(), 5);
        // op=0 (add): a=3, b=1 → result 0 with carry, zero flag set.
        let m = 3 | (1 << width); // op bits zero
        assert_eq!(pla.eval(0, m as u64), Some(false), "result bit 0");
        assert_eq!(pla.eval(1, m as u64), Some(false), "result bit 1");
        assert_eq!(pla.eval(2, m as u64), Some(true), "carry");
        assert_eq!(pla.eval(3, m as u64), Some(true), "zero");
        // op=4 (xor): a=2, b=1 → 3.
        let m = 2 | (1 << width) | (4 % 4) << (2 * width); // opcode 0 under 2 bits → add
        let _ = m;
        let m = 2 | (1 << width) | (0b10 << (2 * width)); // opcode 2 = AND → 0
        assert_eq!(pla.eval(3, m as u64), Some(true), "2 AND 1 = 0 → zero flag");
    }

    #[test]
    fn pla_from_fn_skips_zero_rows() {
        let pla = pla_from_fn(3, 2, |m| u64::from(m == 5) | (u64::from(m == 5) << 1));
        assert_eq!(pla.cubes().len(), 1);
        assert_eq!(pla.eval(0, 5), Some(true));
        assert_eq!(pla.eval(1, 5), Some(true));
        assert_eq!(pla.eval(0, 4), Some(false));
    }

    #[test]
    #[should_panic(expected = "limited to 16 inputs")]
    fn enumeration_limit_enforced() {
        let _ = pla_from_fn(17, 1, |_| 0);
    }
}
