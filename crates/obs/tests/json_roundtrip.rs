//! Seeded proptest-style round-trip tests for `obs::json` string
//! escaping. The Chrome trace export and the `stats --trace-out` lines lean on
//! `write_escaped`, so every representable string — quotes, backslashes,
//! control characters, non-ASCII — must survive `render` → `parse`
//! unchanged, and every rendered document must stay one physical line.

use obs::json::Json;

/// SplitMix64 — the workspace's standard seeded generator (no external
/// rand crate).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Draws a char biased towards the hostile regions: escapes, control
/// characters, multi-byte UTF-8, and the edges of the BMP.
fn hostile_char(rng: &mut SplitMix64) -> char {
    match rng.below(10) {
        0 => '"',
        1 => '\\',
        2 => ['\n', '\r', '\t'][rng.below(3) as usize],
        3 => char::from_u32(rng.below(0x20) as u32).unwrap(), // C0 controls
        4 => ['/', '\u{8}', '\u{c}', '\u{7f}'][rng.below(4) as usize],
        5 => ['é', 'ß', 'λ', 'ж'][rng.below(4) as usize], // 2-byte UTF-8
        6 => ['∀', '⊕', '‾', '\u{fffd}'][rng.below(4) as usize], // 3-byte
        7 => ['𝔽', '🦀', '𐍈'][rng.below(3) as usize],     // 4-byte (surrogate pairs in UTF-16)
        8 => char::from_u32(0xD7FF).unwrap(),             // last scalar before the surrogate gap
        _ => char::from_u32((b'a' + rng.below(26) as u8) as u32).unwrap(),
    }
}

fn hostile_string(rng: &mut SplitMix64, max_len: u64) -> String {
    (0..rng.below(max_len + 1)).map(|_| hostile_char(rng)).collect()
}

#[test]
fn hostile_strings_roundtrip() {
    let mut rng = SplitMix64(0x0b5e_c0de);
    for case in 0..2000 {
        let s = hostile_string(&mut rng, 40);
        let doc = Json::Str(s.clone());
        let text = doc.render();
        assert!(!text.contains('\n') && !text.contains('\r'), "case {case}: multi-line render");
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: {e} while parsing {text:?} from {s:?}"));
        assert_eq!(back.as_str(), Some(s.as_str()), "case {case} mutated through the round-trip");
    }
}

#[test]
fn hostile_object_keys_and_nested_values_roundtrip() {
    let mut rng = SplitMix64(0xfeed_beef);
    for case in 0..500 {
        let key_a = hostile_string(&mut rng, 12);
        let mut key_b = hostile_string(&mut rng, 12);
        if key_b == key_a {
            key_b.push('x'); // Json::field replaces duplicate keys
        }
        let doc = Json::obj()
            .field(&key_a, Json::Str(hostile_string(&mut rng, 20)))
            .field(&key_b, Json::Arr(vec![Json::Str(hostile_string(&mut rng, 20)), Json::Null]))
            .field("n", (rng.below(1 << 50)) as f64 / 1024.0);
        let text = doc.render();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text:?}"));
        assert_eq!(back, doc, "case {case}");
    }
}

#[test]
fn fixed_corpus_of_known_nasties() {
    for s in [
        "",
        "\"",
        "\\",
        "\\\"",
        "\\\\\"\\",
        "\u{0}",
        "\u{1}\u{2}\u{3}",
        "line\nbreak\rreturn\ttab",
        "back\u{8}space form\u{c}feed",
        "per-cent % and ; semicolons (flamegraph separators)",
        "bench \"quoted\"\\path",
        "ünïcödé κόσμε 🦀🦀",
        "\u{d7ff}\u{e000}\u{fffd}",
        "ends with backslash \\",
        "ends with quote \"",
    ] {
        let text = Json::Str(s.to_owned()).render();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e} for {s:?} → {text:?}"));
        assert_eq!(back.as_str(), Some(s), "round-trip mutated {s:?}");
        // And inside an event-shaped object, as a Chrome trace event holds it.
        let record = Json::obj().field("name", s).field("ph", "X").field("dur", 1u64);
        let back = Json::parse(&record.render()).expect("record parses");
        assert_eq!(back.get("name").and_then(Json::as_str), Some(s));
    }
}
