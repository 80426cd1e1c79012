//! The PLA container and the espresso file format.

use std::fmt;
use std::str::FromStr;

use crate::cube::{Cube, OutputValue, MAX_INPUTS, MAX_OUTPUTS};

/// PLA logical type: which sets the cubes describe (espresso `.type`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PlaType {
    /// `f`: cubes give the on-set only; everything else is off.
    F,
    /// `fd` (default): cubes give the on-set and don't-care set; the rest
    /// is off.
    #[default]
    Fd,
    /// `fr`: cubes give the on-set and off-set; the rest is don't-care.
    Fr,
    /// `fdr`: cubes give all three sets explicitly.
    Fdr,
}

impl PlaType {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "f" => Some(PlaType::F),
            "fd" => Some(PlaType::Fd),
            "fr" => Some(PlaType::Fr),
            "fdr" => Some(PlaType::Fdr),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            PlaType::F => "f",
            PlaType::Fd => "fd",
            PlaType::Fr => "fr",
            PlaType::Fdr => "fdr",
        }
    }

    /// Does a `0` output entry put the cube in the off-set?
    pub fn zero_is_offset(self) -> bool {
        matches!(self, PlaType::Fr | PlaType::Fdr)
    }

    /// Is the unspecified remainder of the space the off-set (`true`) or
    /// the don't-care set (`false`)?
    pub fn rest_is_offset(self) -> bool {
        matches!(self, PlaType::F | PlaType::Fd)
    }
}

/// A multi-output incompletely specified function as a list of cubes —
/// the in-memory form of a `.pla` file.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Pla {
    num_inputs: usize,
    num_outputs: usize,
    pla_type: PlaType,
    input_labels: Option<Vec<String>>,
    output_labels: Option<Vec<String>>,
    cubes: Vec<Cube>,
}

impl Pla {
    /// Creates an empty PLA with the given dimensions and default type
    /// (`fd`).
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs` is above [`MAX_INPUTS`] or `num_outputs`
    /// above `u32::MAX`.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        assert!(num_inputs <= MAX_INPUTS, "{num_inputs} inputs; at most {MAX_INPUTS} supported");
        assert!(
            num_outputs <= MAX_OUTPUTS,
            "{num_outputs} outputs; at most {MAX_OUTPUTS} supported"
        );
        Pla { num_inputs, num_outputs, ..Default::default() }
    }

    /// Sets the PLA type (builder-style).
    pub fn with_type(mut self, pla_type: PlaType) -> Self {
        self.pla_type = pla_type;
        self
    }

    /// Sets the input labels (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the number of labels does not match `num_inputs`.
    pub fn with_input_labels(mut self, labels: Vec<String>) -> Self {
        assert_eq!(labels.len(), self.num_inputs, "one label per input required");
        self.input_labels = Some(labels);
        self
    }

    /// Sets the output labels (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the number of labels does not match `num_outputs`.
    pub fn with_output_labels(mut self, labels: Vec<String>) -> Self {
        assert_eq!(labels.len(), self.num_outputs, "one label per output required");
        self.output_labels = Some(labels);
        self
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The PLA type.
    pub fn pla_type(&self) -> PlaType {
        self.pla_type
    }

    /// Input labels, if any were declared.
    pub fn input_labels(&self) -> Option<&[String]> {
        self.input_labels.as_deref()
    }

    /// Output labels, if any were declared.
    pub fn output_labels(&self) -> Option<&[String]> {
        self.output_labels.as_deref()
    }

    /// The cube list.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Appends a cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube's dimensions do not match the PLA's.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.inputs().len(), self.num_inputs, "cube input arity mismatch");
        assert_eq!(cube.outputs().len(), self.num_outputs, "cube output arity mismatch");
        self.cubes.push(cube);
    }

    /// Convenience: appends a cube given as PLA-file strings, e.g.
    /// `push_str("1-0", "1-")`.
    ///
    /// # Panics
    ///
    /// Panics on malformed characters or arity mismatch.
    pub fn push_str(&mut self, inputs: &str, outputs: &str) {
        let chars = inputs.chars().chain(outputs.chars());
        let cube =
            Cube::parse(chars, inputs.len(), outputs.len(), 0).expect("malformed cube literal");
        self.push(cube);
    }

    /// Cubes contributing to the *on-set* of `output`.
    pub fn on_cubes(&self, output: usize) -> impl Iterator<Item = &Cube> {
        self.cubes.iter().filter(move |c| c.outputs()[output] == OutputValue::One)
    }

    /// Evaluates output `output` on a complete input assignment, returning
    /// `Some(value)` if the point is in the on- or off-set and `None` if it
    /// is a don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `output >= num_outputs`.
    pub fn eval(&self, output: usize, assignment: u64) -> Option<bool> {
        assert!(output < self.num_outputs, "output index out of range");
        let mut in_dc = false;
        let mut in_off = false;
        for cube in &self.cubes {
            if !cube.covers(assignment) {
                continue;
            }
            match cube.outputs()[output] {
                OutputValue::One => return Some(true),
                OutputValue::DontCare => in_dc = true,
                OutputValue::Zero if self.pla_type.zero_is_offset() => in_off = true,
                _ => {}
            }
        }
        if in_dc {
            None
        } else if in_off || self.pla_type.rest_is_offset() {
            Some(false)
        } else {
            None
        }
    }

    /// How often each input variable appears as a literal across all
    /// cubes — the classic static BDD-ordering weight.
    pub fn literal_frequencies(&self) -> Vec<f64> {
        let mut freq = vec![0f64; self.num_inputs];
        for cube in &self.cubes {
            for (k, _) in cube.literals() {
                freq[k as usize] += 1.0;
            }
        }
        freq
    }
}

impl fmt::Display for Pla {
    /// Writes the PLA in espresso file syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".i {}", self.num_inputs)?;
        writeln!(f, ".o {}", self.num_outputs)?;
        if let Some(labels) = &self.input_labels {
            writeln!(f, ".ilb {}", labels.join(" "))?;
        }
        if let Some(labels) = &self.output_labels {
            writeln!(f, ".ob {}", labels.join(" "))?;
        }
        writeln!(f, ".type {}", self.pla_type.as_str())?;
        writeln!(f, ".p {}", self.cubes.len())?;
        let mut line = String::new();
        for cube in &self.cubes {
            line.clear();
            cube.write_line(&mut line);
            line.push('\n');
            f.write_str(&line)?;
        }
        writeln!(f, ".e")
    }
}

/// Error produced when parsing a PLA file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsePlaError {
    line: usize,
    message: String,
}

impl ParsePlaError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParsePlaError { line, message: message.into() }
    }

    /// 1-based line number of the offending input line.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParsePlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pla parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePlaError {}

impl FromStr for Pla {
    type Err = ParsePlaError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut num_inputs: Option<usize> = None;
        let mut num_outputs: Option<usize> = None;
        let mut pla_type = PlaType::default();
        let mut input_labels = None;
        let mut output_labels = None;
        let mut cubes: Vec<Cube> = Vec::new();
        let mut declared_cubes: Option<usize> = None;
        let mut ended = false;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() || ended {
                continue;
            }
            if let Some(rest) = line.strip_prefix('.') {
                let mut parts = rest.split_whitespace();
                let keyword = parts.next().unwrap_or("");
                match keyword {
                    // A second `.i`/`.o` would change the width of cubes
                    // already read, so only one of each is allowed.
                    "i" => {
                        if num_inputs.is_some() {
                            return Err(ParsePlaError::new(lineno, "repeated .i declaration"));
                        }
                        num_inputs =
                            Some(parse_width(parts.next(), lineno, ".i", MAX_INPUTS, "inputs")?);
                    }
                    "o" => {
                        if num_outputs.is_some() {
                            return Err(ParsePlaError::new(lineno, "repeated .o declaration"));
                        }
                        num_outputs =
                            Some(parse_width(parts.next(), lineno, ".o", MAX_OUTPUTS, "outputs")?);
                    }
                    "p" => {
                        declared_cubes = Some(parse_num(parts.next(), lineno, ".p")?);
                    }
                    "type" => {
                        let t = parts.next().unwrap_or("");
                        pla_type = PlaType::parse(t).ok_or_else(|| {
                            ParsePlaError::new(lineno, format!("unknown .type {t:?}"))
                        })?;
                    }
                    "ilb" => {
                        input_labels = Some(parts.map(str::to_owned).collect::<Vec<_>>());
                    }
                    "ob" => {
                        output_labels = Some(parts.map(str::to_owned).collect::<Vec<_>>());
                    }
                    "e" | "end" => {
                        ended = true;
                    }
                    // Harmless directives some MCNC files carry.
                    "phase" | "pair" | "symbolic" | "mv" | "kiss" | "label" => {}
                    other => {
                        return Err(ParsePlaError::new(
                            lineno,
                            format!("unsupported directive .{other}"),
                        ));
                    }
                }
                continue;
            }
            // A cube line: input part then output part, optionally separated
            // by whitespace (espresso also allows the parts to be split by a
            // single `|`, which we normalize away).
            let (ni, no) = match (num_inputs, num_outputs) {
                (Some(i), Some(o)) => (i, o),
                _ => {
                    return Err(ParsePlaError::new(lineno, "cube before .i/.o declarations"));
                }
            };
            cubes.push(cube_line(line.chars().filter(is_position), ni, no, lineno)?);
        }

        let num_inputs =
            num_inputs.ok_or_else(|| ParsePlaError::new(0, "missing .i declaration"))?;
        let num_outputs =
            num_outputs.ok_or_else(|| ParsePlaError::new(0, "missing .o declaration"))?;
        if let Some(declared) = declared_cubes {
            if declared != cubes.len() {
                return Err(ParsePlaError::new(
                    0,
                    format!(".p declares {declared} cubes but {} are present", cubes.len()),
                ));
            }
        }
        if let Some(labels) = &input_labels {
            if labels.len() != num_inputs {
                return Err(ParsePlaError::new(0, ".ilb label count mismatch"));
            }
        }
        if let Some(labels) = &output_labels {
            if labels.len() != num_outputs {
                return Err(ParsePlaError::new(0, ".ob label count mismatch"));
            }
        }
        Ok(Pla { num_inputs, num_outputs, pla_type, input_labels, output_labels, cubes })
    }
}

/// Is `c` a cube position? Whitespace and `|` separate the positions.
fn is_position(c: &char) -> bool {
    !c.is_whitespace() && *c != '|'
}

/// The cube of one PLA line from its `positions`: `ni` inputs, then `no`
/// outputs.
fn cube_line(
    positions: impl Iterator<Item = char> + Clone,
    ni: usize,
    no: usize,
    line: usize,
) -> Result<Cube, ParsePlaError> {
    // The header bounds `.i` by 256 and `.o` by `u32::MAX`, so the width
    // fits a `u64` on every target.
    let width = ni as u64 + no as u64;
    // Positions are counted in bytes, so a non-ASCII character can
    // straddle the split between the parts; any other character is
    // rejected by `Cube::parse`.
    let (mut len, mut straddles) = (0, false);
    for c in positions.clone() {
        straddles |= len < ni && len + c.len_utf8() > ni;
        len += c.len_utf8();
    }
    if len as u64 != width {
        return Err(ParsePlaError::new(
            line,
            format!("cube has {len} positions, expected {width}"),
        ));
    }
    if straddles {
        return Err(ParsePlaError::new(line, "non-ASCII character in a cube position"));
    }
    Cube::parse(positions, ni, no, line)
}

fn parse_num(token: Option<&str>, line: usize, what: &str) -> Result<usize, ParsePlaError> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParsePlaError::new(line, format!("{what} needs a number")))
}

/// The count of a `.i` or `.o` declaration, which a cube must be able to
/// hold: at most `max` `unit`s.
fn parse_width(
    token: Option<&str>,
    line: usize,
    directive: &str,
    max: usize,
    unit: &str,
) -> Result<usize, ParsePlaError> {
    let n = parse_num(token, line, directive)?;
    if n > max {
        return Err(ParsePlaError::new(
            line,
            format!("{directive} {n} exceeds the limit of {max} {unit}"),
        ));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
.i 3
.o 2
.ilb a b c
.ob f g
.type fr
.p 3
11- 10
0-1 01
111 0-
.e
";

    #[test]
    fn parse_sample() {
        let pla: Pla = SAMPLE.parse().expect("valid");
        assert_eq!(pla.num_inputs(), 3);
        assert_eq!(pla.num_outputs(), 2);
        assert_eq!(pla.pla_type(), PlaType::Fr);
        assert_eq!(pla.cubes().len(), 3);
        assert_eq!(pla.input_labels().unwrap(), ["a", "b", "c"]);
        assert_eq!(pla.output_labels().unwrap(), ["f", "g"]);
        assert_eq!(pla.on_cubes(0).count(), 1);
        // fr: the explicit `0` cubes are the off-set, the rest don't-care.
        assert_eq!(pla.eval(0, 0b100), Some(false), "a=0, c=1 lies in `0-1 01`");
        assert_eq!(pla.eval(0, 0b000), None);
        assert_eq!(pla.on_cubes(1).count(), 1);
    }

    #[test]
    fn roundtrip_display_parse() {
        let pla: Pla = SAMPLE.parse().expect("valid");
        let text = pla.to_string();
        let again: Pla = text.parse().expect("roundtrip");
        assert_eq!(pla, again);
    }

    #[test]
    fn eval_fd_semantics() {
        let text = ".i 2\n.o 1\n.type fd\n11 1\n0- d\n.e\n";
        let pla: Pla = text.parse().expect("valid");
        assert_eq!(pla.eval(0, 0b11), Some(true));
        assert_eq!(pla.eval(0, 0b00), None, "don't-care cube");
        assert_eq!(pla.eval(0, 0b01), Some(false), "fd: rest is off");
    }

    #[test]
    fn eval_fr_semantics() {
        let text = ".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n";
        let pla: Pla = text.parse().expect("valid");
        assert_eq!(pla.eval(0, 0b11), Some(true));
        assert_eq!(pla.eval(0, 0b00), Some(false));
        assert_eq!(pla.eval(0, 0b01), None, "fr: rest is don't-care");
    }

    #[test]
    fn cube_lines_with_embedded_spaces() {
        let text = ".i 4\n.o 1\n1 1 - 0 1\n.e\n";
        let pla: Pla = text.parse().expect("valid");
        assert_eq!(pla.cubes().len(), 1);
        assert_eq!(pla.cubes()[0].to_string(), "11-0 1");
    }

    #[test]
    fn error_reporting() {
        let err = ".i 2\n.o 1\n1x9 1\n".parse::<Pla>().unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("line 3"));

        let err = "11 1\n".parse::<Pla>().unwrap_err();
        assert!(err.to_string().contains("before .i/.o"));

        let err = ".i 2\n.o 1\n.p 5\n11 1\n.e\n".parse::<Pla>().unwrap_err();
        assert!(err.to_string().contains(".p declares"));

        let err = ".o 1\n.e\n".parse::<Pla>().unwrap_err();
        assert!(err.to_string().contains("missing .i"));

        let err = ".i 2\n.o 1\n111 1\n".parse::<Pla>().unwrap_err();
        assert!(err.to_string().contains("expected 3"));

        let err = ".i 2\n.o 1\n.bogus\n".parse::<Pla>().unwrap_err();
        assert!(err.to_string().contains("unsupported directive"));

        // The BDD kernel takes at most 256 variables; a header-only PLA
        // above that is refused before any cube is read.
        for width in ["300", "4294967296"] {
            let err = format!(".i {width}\n.o 1\n.e\n").parse::<Pla>().unwrap_err();
            assert_eq!(err.line(), 1);
            assert!(err.to_string().contains(&format!(".i {width} exceeds the limit of 256")));
        }

        // A second `.i`/`.o` after the cubes must not re-size the PLA under
        // cubes of the old width, whether it shrinks or grows it.
        for (text, what) in [
            (".i 4\n.o 1\n1111 1\n.i 3\n.e\n", ".i"),
            (".i 3\n.o 1\n111 1\n.i 4\n.e\n", ".i"),
            (".i 3\n.o 1\n111 1\n.o 2\n.e\n", ".o"),
        ] {
            let err = text.parse::<Pla>().expect_err(text);
            assert_eq!(err.line(), 4, "{text:?}");
            assert!(err.to_string().contains(&format!("repeated {what}")), "{err}");
        }
    }

    #[test]
    fn declared_widths_beyond_the_cube_header_are_a_parse_error() {
        let max = usize::MAX;
        for (text, line) in
            [(format!(".i {max}\n.o 1\n0 1\n.e\n"), 1), (format!(".i 2\n.o {max}\n0 1\n.e\n"), 2)]
        {
            let err = text.parse::<Pla>().expect_err("no cube is that wide");
            assert_eq!(err.line(), line);
            assert!(err.to_string().contains(&format!("{max} exceeds the limit")), "{err}");
        }
    }

    #[test]
    fn non_ascii_cube_characters_are_a_parse_error() {
        let err = ".i 1\n.o 1\né\n.e\n".parse::<Pla>().expect_err("é is no cube position");
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("non-ASCII"), "{err}");
    }

    #[test]
    fn literal_frequencies_count_cared_positions() {
        let pla: Pla = SAMPLE.parse().expect("valid");
        assert_eq!(pla.literal_frequencies(), vec![3.0, 2.0, 2.0]);
    }

    #[test]
    fn push_validates_arity() {
        let mut pla = Pla::new(2, 1);
        pla.push_str("1-", "1");
        assert_eq!(pla.cubes().len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_wrong_arity_panics() {
        let mut pla = Pla::new(2, 1);
        pla.push_str("1-0", "1");
    }

    #[test]
    fn content_after_end_is_ignored() {
        let text = ".i 1\n.o 1\n1 1\n.e\ngarbage beyond end\n";
        let pla: Pla = text.parse().expect("valid");
        assert_eq!(pla.cubes().len(), 1);
    }
}
