//! Cubes: the rows of a PLA.

use std::fmt;

/// Value of one input position of a cube.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Trit {
    /// The input must be 0 (`0` in a PLA file).
    Zero,
    /// The input must be 1 (`1` in a PLA file).
    One,
    /// The input does not matter (`-` in a PLA file).
    Dc,
}

impl Trit {
    /// Does an input bit satisfy this position?
    pub fn matches(self, bit: bool) -> bool {
        match self {
            Trit::Zero => !bit,
            Trit::One => bit,
            Trit::Dc => true,
        }
    }

    /// The PLA file character for this value.
    pub fn to_char(self) -> char {
        match self {
            Trit::Zero => '0',
            Trit::One => '1',
            Trit::Dc => '-',
        }
    }
}

/// Value of one output position of a cube.
///
/// The meaning of `Zero` depends on the PLA type (see
/// [`PlaType`](crate::PlaType)): in `fr`/`fdr` it contributes to the
/// off-set; in `f`/`fd` it means "not in this cube".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OutputValue {
    /// `1`: the cube belongs to this output's on-set.
    One,
    /// `0`: off-set member (`fr`, `fdr`) or no effect (`f`, `fd`).
    Zero,
    /// `-` / `~`: the cube has no effect on this output.
    NotUsed,
    /// `d` / `2`: the cube belongs to this output's don't-care set.
    DontCare,
}

impl OutputValue {
    /// The PLA file character for this value.
    pub fn to_char(self) -> char {
        match self {
            OutputValue::One => '1',
            OutputValue::Zero => '0',
            OutputValue::NotUsed => '-',
            OutputValue::DontCare => 'd',
        }
    }
}

/// One row of a PLA: an input cube plus a value for every output.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    inputs: Vec<Trit>,
    outputs: Vec<OutputValue>,
}

impl Cube {
    /// Creates a cube from its input and output parts.
    pub fn new(inputs: Vec<Trit>, outputs: Vec<OutputValue>) -> Self {
        Cube { inputs, outputs }
    }

    /// Creates the all-don't-care input cube asserting output `out` among
    /// `num_outputs` outputs.
    pub fn tautology(num_inputs: usize, num_outputs: usize, out: usize) -> Self {
        let mut outputs = vec![OutputValue::NotUsed; num_outputs];
        outputs[out] = OutputValue::One;
        Cube { inputs: vec![Trit::Dc; num_inputs], outputs }
    }

    /// The input part.
    pub fn inputs(&self) -> &[Trit] {
        &self.inputs
    }

    /// The output part.
    pub fn outputs(&self) -> &[OutputValue] {
        &self.outputs
    }

    /// Number of non-don't-care input literals.
    pub fn literal_count(&self) -> usize {
        self.inputs.iter().filter(|&&t| t != Trit::Dc).count()
    }

    /// The input literals as `(input index, polarity)`, in input order.
    pub fn literals(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.inputs.iter().enumerate().filter_map(|(k, &t)| match t {
            Trit::One => Some((k as u32, true)),
            Trit::Zero => Some((k as u32, false)),
            Trit::Dc => None,
        })
    }

    /// Does the input assignment (bit `k` = variable `k`) lie inside this
    /// cube's input part?
    pub fn covers(&self, assignment: u64) -> bool {
        self.inputs.iter().enumerate().all(|(k, t)| t.matches(assignment & (1 << k) != 0))
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.inputs {
            write!(f, "{}", t.to_char())?;
        }
        write!(f, " ")?;
        for o in &self.outputs {
            write!(f, "{}", o.to_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trit_matching() {
        assert!(Trit::One.matches(true));
        assert!(!Trit::One.matches(false));
        assert!(Trit::Zero.matches(false));
        assert!(Trit::Dc.matches(true) && Trit::Dc.matches(false));
    }

    #[test]
    fn cube_cover_and_literals() {
        let c = Cube::new(vec![Trit::One, Trit::Dc, Trit::Zero], vec![OutputValue::One]);
        assert!(c.covers(0b001));
        assert!(c.covers(0b011));
        assert!(!c.covers(0b101));
        assert!(!c.covers(0b000));
        assert_eq!(c.literal_count(), 2);
        assert_eq!(c.literals().collect::<Vec<_>>(), vec![(0, true), (2, false)]);
        assert_eq!(c.to_string(), "1-0 1");
    }

    #[test]
    fn tautology_cube() {
        let c = Cube::tautology(4, 2, 1);
        assert!(c.covers(0b1111) && c.covers(0));
        assert_eq!(c.outputs()[0], OutputValue::NotUsed);
        assert_eq!(c.outputs()[1], OutputValue::One);
        assert_eq!(c.literal_count(), 0);
    }
}
