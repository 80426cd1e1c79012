//! Cubes: the rows of a PLA, packed into bit planes.

use std::fmt;
use std::ops::Index;

use crate::format::ParsePlaError;

/// The most inputs a PLA may declare: the variable limit of the BDD
/// kernel that builds its specification.
pub const MAX_INPUTS: usize = 256;

/// The most outputs a cube can hold: its output count is a `u32`.
pub(crate) const MAX_OUTPUTS: usize = u32::MAX as usize;

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

    /// The 2-bit code of this value in a cube's output plane.
    fn code(self) -> u64 {
        match self {
            OutputValue::NotUsed => 0,
            OutputValue::One => 1,
            OutputValue::Zero => 2,
            OutputValue::DontCare => 3,
        }
    }
}

/// The output value of each 2-bit code; `-` is 0, so an output plane
/// word is 0 where a cube does not touch its outputs.
static OUTPUT_VALUES: [OutputValue; 4] =
    [OutputValue::NotUsed, OutputValue::One, OutputValue::Zero, OutputValue::DontCare];

/// Inputs per plane word.
const INPUTS_PER_WORD: usize = 64;
/// Outputs per plane word, two bits each.
const OUTPUTS_PER_WORD: usize = 32;
/// The low bit of every output's two bits.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// One row of a PLA: an input cube plus a value for every output.
///
/// The cube is packed into plane words: a care plane and a value plane
/// with one bit per input (`-` is care 0, and the value bit is set only
/// under a care bit), then a 2-bit code per output (`-` is 0). A cube of
/// at most 64 inputs and 32 outputs keeps its three words inline and
/// owns no heap memory; a wider one keeps them in one boxed slice.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    num_inputs: u32,
    num_outputs: u32,
    words: Words,
}

/// The plane words: care, then value (one word per 64 inputs each), then
/// outputs (one word per 32); an inline cube's unused words stay 0.
/// Which variant holds them depends only on the cube's dimensions, so
/// derived equality and hashing are exact.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline([u64; 3]),
    Spilled(Box<[u64]>),
}

impl Cube {
    /// The cube with every input `-` and every output `-`.
    ///
    /// # Panics
    ///
    /// Panics if either count is above `u32::MAX`.
    pub(crate) fn blank(num_inputs: usize, num_outputs: usize) -> Self {
        let inline = num_inputs <= INPUTS_PER_WORD && num_outputs <= OUTPUTS_PER_WORD;
        let words = if inline {
            Words::Inline([0; 3])
        } else {
            let len =
                2 * num_inputs.div_ceil(INPUTS_PER_WORD) + num_outputs.div_ceil(OUTPUTS_PER_WORD);
            Words::Spilled(vec![0; len].into_boxed_slice())
        };
        Cube {
            num_inputs: u32::try_from(num_inputs).expect("cube input count fits in a u32"),
            num_outputs: u32::try_from(num_outputs).expect("cube output count fits in a u32"),
            words,
        }
    }

    /// Creates a cube from its input and output parts.
    pub fn new(inputs: &[Trit], outputs: &[OutputValue]) -> Self {
        let mut cube = Cube::blank(inputs.len(), outputs.len());
        for (k, &t) in inputs.iter().enumerate() {
            cube.set_input(k, t);
        }
        for (j, &v) in outputs.iter().enumerate() {
            cube.set_output(j, v);
        }
        cube
    }

    /// Creates the all-don't-care input cube asserting output `out` among
    /// `num_outputs` outputs.
    pub fn tautology(num_inputs: usize, num_outputs: usize, out: usize) -> Self {
        let mut cube = Cube::blank(num_inputs, num_outputs);
        cube.set_output(out, OutputValue::One);
        cube
    }

    /// Decodes a cube from its PLA file characters: the first
    /// `num_inputs` are the input part, the next `num_outputs` the output
    /// part. `line` is the line number errors report.
    ///
    /// # Panics
    ///
    /// Panics if `chars` yields more than `num_inputs + num_outputs`
    /// characters.
    pub(crate) fn parse(
        chars: impl Iterator<Item = char>,
        num_inputs: usize,
        num_outputs: usize,
        line: usize,
    ) -> Result<Self, ParsePlaError> {
        let mut cube = Cube::blank(num_inputs, num_outputs);
        let (care, value, outputs) = cube.planes_mut();
        for (p, c) in chars.enumerate() {
            if p < num_inputs {
                let (w, bit) = (p / INPUTS_PER_WORD, 1 << (p % INPUTS_PER_WORD));
                match c {
                    '0' => care[w] |= bit,
                    '1' => {
                        care[w] |= bit;
                        value[w] |= bit;
                    }
                    '-' | '2' | 'x' | 'X' => {}
                    other => {
                        return Err(ParsePlaError::new(
                            line,
                            format!("bad input character {other:?}"),
                        ))
                    }
                }
            } else {
                let j = p - num_inputs;
                let v = match c {
                    '1' | '4' => OutputValue::One,
                    '0' => OutputValue::Zero,
                    '-' | '~' | '3' => OutputValue::NotUsed,
                    'd' | '2' => OutputValue::DontCare,
                    other => {
                        return Err(ParsePlaError::new(
                            line,
                            format!("bad output character {other:?}"),
                        ))
                    }
                };
                outputs[j / OUTPUTS_PER_WORD] |= v.code() << output_shift(j);
            }
        }
        Ok(cube)
    }

    /// All plane words.
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(words) => words,
            Words::Spilled(words) => words,
        }
    }

    /// Words per input plane.
    fn input_words(&self) -> usize {
        (self.num_inputs as usize).div_ceil(INPUTS_PER_WORD)
    }

    /// The care, value and output planes.
    fn planes(&self) -> (&[u64], &[u64], &[u64]) {
        let iw = self.input_words();
        let (care, rest) = self.words().split_at(iw);
        let (value, outputs) = rest.split_at(iw);
        (care, value, outputs)
    }

    /// The care, value and output planes, mutably.
    fn planes_mut(&mut self) -> (&mut [u64], &mut [u64], &mut [u64]) {
        let iw = self.input_words();
        let words = match &mut self.words {
            Words::Inline(words) => &mut words[..],
            Words::Spilled(words) => &mut words[..],
        };
        let (care, rest) = words.split_at_mut(iw);
        let (value, outputs) = rest.split_at_mut(iw);
        (care, value, outputs)
    }

    /// Does this cube keep its planes inline, without a heap allocation?
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.words, Words::Inline(_))
    }

    /// The input part.
    pub fn inputs(&self) -> Inputs<'_> {
        let (care, value, _) = self.planes();
        Inputs { care, value, len: self.num_inputs as usize }
    }

    /// The output part.
    pub fn outputs(&self) -> Outputs<'_> {
        let (_, _, words) = self.planes();
        Outputs { words, len: self.num_outputs as usize }
    }

    /// Sets input `k` to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not an input position.
    pub fn set_input(&mut self, k: usize, t: Trit) {
        assert!(k < self.num_inputs as usize, "input {k} out of range");
        let (care, value, _) = self.planes_mut();
        let (w, bit) = (k / INPUTS_PER_WORD, 1 << (k % INPUTS_PER_WORD));
        let (c, v) = match t {
            Trit::Zero => (true, false),
            Trit::One => (true, true),
            Trit::Dc => (false, false),
        };
        care[w] = if c { care[w] | bit } else { care[w] & !bit };
        value[w] = if v { value[w] | bit } else { value[w] & !bit };
    }

    /// Sets output `j` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not an output position.
    pub fn set_output(&mut self, j: usize, v: OutputValue) {
        assert!(j < self.num_outputs as usize, "output {j} out of range");
        let (_, _, outputs) = self.planes_mut();
        let word = &mut outputs[j / OUTPUTS_PER_WORD];
        *word = *word & !(3 << output_shift(j)) | v.code() << output_shift(j);
    }

    /// Number of non-don't-care input literals.
    pub fn literal_count(&self) -> usize {
        let (care, _, _) = self.planes();
        care.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The input literals as `(input index, polarity)`, in input order.
    pub fn literals(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        let (care, value, _) = self.planes();
        SetBits::new(care, |w| w)
            .map(move |(w, b)| ((w * INPUTS_PER_WORD + b) as u32, value[w] >> b & 1 == 1))
    }

    /// The outputs whose entry is not `-`, with their entries, in output
    /// order.
    pub fn used_outputs(&self) -> impl Iterator<Item = (usize, OutputValue)> + '_ {
        let (_, _, outputs) = self.planes();
        SetBits::new(outputs, |w| (w | w >> 1) & LOW_BITS).map(move |(w, b)| {
            (w * OUTPUTS_PER_WORD + b / 2, OUTPUT_VALUES[(outputs[w] >> b & 3) as usize])
        })
    }

    /// Does the input assignment (bit `k` = variable `k`) lie inside this
    /// cube's input part? Inputs from 64 on read as 0.
    pub fn covers(&self, assignment: u64) -> bool {
        let (care, value, _) = self.planes();
        let mut words = care.iter().zip(value);
        if let Some((&care, &value)) = words.next() {
            if (assignment ^ value) & care != 0 {
                return false;
            }
        }
        words.all(|(_, &value)| value == 0)
    }

    /// Appends the cube's PLA file line, without a newline, to `out`.
    pub(crate) fn write_line(&self, out: &mut String) {
        let inputs = self.inputs();
        out.reserve(inputs.len() + 1 + self.num_outputs as usize);
        out.extend(inputs.iter().map(|t| t.to_char()));
        out.push(' ');
        out.extend(self.outputs().iter().map(|v| v.to_char()));
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = String::new();
        self.write_line(&mut line);
        f.write_str(&line)
    }
}

/// The bit shift of output `j` within its plane word.
fn output_shift(j: usize) -> usize {
    2 * (j % OUTPUTS_PER_WORD)
}

/// The set bits of `mask(word)` over a plane's words, as `(word index,
/// bit)`, in order.
struct SetBits<'a, M> {
    words: &'a [u64],
    mask: M,
    word: usize,
    bits: u64,
}

impl<'a, M: Fn(u64) -> u64> SetBits<'a, M> {
    fn new(words: &'a [u64], mask: M) -> Self {
        let bits = words.first().map_or(0, |&w| mask(w));
        SetBits { words, mask, word: 0, bits }
    }
}

impl<M: Fn(u64) -> u64> Iterator for SetBits<'_, M> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = (self.mask)(*self.words.get(self.word)?);
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word, b))
    }
}

/// The input part of a [`Cube`], decoded one position at a time.
#[derive(Clone, Copy)]
pub struct Inputs<'a> {
    care: &'a [u64],
    value: &'a [u64],
    len: usize,
}

impl<'a> Inputs<'a> {
    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Has the cube no inputs?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The positions in input order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'static Trit> + 'a {
        let Inputs { care, value, len } = *self;
        (0..len).map(move |k| trit(care, value, k))
    }

    /// The positions as a vector.
    pub fn to_vec(&self) -> Vec<Trit> {
        self.iter().copied().collect()
    }
}

/// Input `k` of the planes.
fn trit(care: &[u64], value: &[u64], k: usize) -> &'static Trit {
    let (w, b) = (k / INPUTS_PER_WORD, k % INPUTS_PER_WORD);
    match (care[w] >> b & 1, value[w] >> b & 1) {
        (0, _) => &Trit::Dc,
        (_, 0) => &Trit::Zero,
        _ => &Trit::One,
    }
}

impl Index<usize> for Inputs<'_> {
    type Output = Trit;

    fn index(&self, k: usize) -> &Trit {
        assert!(k < self.len, "input {k} out of range for {} inputs", self.len);
        trit(self.care, self.value, k)
    }
}

/// The output part of a [`Cube`], decoded one position at a time.
#[derive(Clone, Copy)]
pub struct Outputs<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> Outputs<'a> {
    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Has the cube no outputs?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in output order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'static OutputValue> + 'a {
        let Outputs { words, len } = *self;
        (0..len).map(move |j| output_value(words, j))
    }

    /// The entries as a vector.
    pub fn to_vec(&self) -> Vec<OutputValue> {
        self.iter().copied().collect()
    }
}

/// Output `j` of the output plane.
fn output_value(words: &[u64], j: usize) -> &'static OutputValue {
    &OUTPUT_VALUES[(words[j / OUTPUTS_PER_WORD] >> output_shift(j) & 3) as usize]
}

impl Index<usize> for Outputs<'_> {
    type Output = OutputValue;

    fn index(&self, j: usize) -> &OutputValue {
        assert!(j < self.len, "output {j} out of range for {} outputs", self.len);
        output_value(self.words, j)
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
        let c = Cube::new(&[Trit::One, Trit::Dc, Trit::Zero], &[OutputValue::One]);
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

    #[test]
    fn small_cubes_are_inline_and_fit_in_40_bytes() {
        assert!(std::mem::size_of::<Cube>() <= 40);
        assert!(Cube::blank(64, 32).is_inline());
        assert!(Cube::blank(0, 0).is_inline());
        assert!(!Cube::blank(65, 1).is_inline());
        assert!(!Cube::blank(1, 33).is_inline());
    }

    #[test]
    fn setters_overwrite_a_position() {
        let mut c = Cube::new(&[Trit::One; 70], &[OutputValue::DontCare; 40]);
        c.set_input(66, Trit::Zero);
        c.set_input(3, Trit::Dc);
        c.set_output(33, OutputValue::Zero);
        c.set_output(0, OutputValue::NotUsed);
        assert_eq!(
            (c.inputs()[66], c.inputs()[3], c.inputs()[65]),
            (Trit::Zero, Trit::Dc, Trit::One)
        );
        assert_eq!(c.outputs()[33], OutputValue::Zero);
        assert_eq!(c.outputs()[0], OutputValue::NotUsed);
        assert_eq!(c.outputs()[32], OutputValue::DontCare);
        assert_eq!(c.used_outputs().count(), 39);
    }

    /// A seeded xorshift stream; the crate has no dependencies.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn packed_cubes_agree_with_their_unpacked_parts() {
        const TRITS: [Trit; 3] = [Trit::Zero, Trit::One, Trit::Dc];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..2_000 {
            // Widths around the word boundaries as often as anywhere else.
            let ni = [0, 1, 63, 64, 65, 127, 128, 129, 130, rng.below(131)][case % 10];
            let no = [0, 1, 31, 32, 33, 63, 64, 65, 70, rng.below(71)][rng.below(10)];
            let inputs: Vec<Trit> = (0..ni).map(|_| TRITS[rng.below(3)]).collect();
            let outputs: Vec<OutputValue> = (0..no).map(|_| OUTPUT_VALUES[rng.below(4)]).collect();
            let cube = Cube::new(&inputs, &outputs);
            assert_eq!(cube.is_inline(), ni <= 64 && no <= 32);
            assert_eq!(cube.inputs().len(), ni);
            assert_eq!(cube.outputs().len(), no);
            assert_eq!(cube.inputs().to_vec(), inputs);
            assert_eq!(cube.outputs().to_vec(), outputs);
            for (k, &t) in inputs.iter().enumerate() {
                assert_eq!(cube.inputs()[k], t);
            }
            for (j, &v) in outputs.iter().enumerate() {
                assert_eq!(cube.outputs()[j], v);
            }
            let literals: Vec<(u32, bool)> = inputs
                .iter()
                .enumerate()
                .filter(|(_, &t)| t != Trit::Dc)
                .map(|(k, &t)| (k as u32, t == Trit::One))
                .collect();
            assert_eq!(cube.literals().collect::<Vec<_>>(), literals);
            assert_eq!(cube.literal_count(), literals.len());
            let used: Vec<(usize, OutputValue)> = outputs
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, v)| v != OutputValue::NotUsed)
                .collect();
            assert_eq!(cube.used_outputs().collect::<Vec<_>>(), used);
            for _ in 0..4 {
                // Half the draws land inside the first 64 inputs' part.
                let mut assignment = rng.next();
                if rng.below(2) == 0 {
                    for (k, t) in inputs.iter().take(64).enumerate() {
                        match t {
                            Trit::One => assignment |= 1 << k,
                            Trit::Zero => assignment &= !(1 << k),
                            Trit::Dc => {}
                        }
                    }
                }
                let expected = inputs
                    .iter()
                    .enumerate()
                    .all(|(k, t)| t.matches(k < 64 && assignment >> k & 1 == 1));
                assert_eq!(cube.covers(assignment), expected, "{cube:?} at {assignment:#x}");
            }
            // A cube with no positions writes a blank line, which is no cube.
            if ni + no > 0 {
                let text = format!(".i {ni}\n.o {no}\n{cube}\n.e\n");
                let pla: crate::Pla = text.parse().expect("a cube's own line parses");
                assert_eq!(pla.cubes(), std::slice::from_ref(&cube));
            }
            let same = Cube::new(&inputs, &outputs);
            assert_eq!(hash(&same), hash(&cube));
        }
    }

    fn hash(cube: &Cube) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(cube)
    }
}
