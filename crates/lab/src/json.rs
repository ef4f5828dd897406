//! A minimal JSON reader and writer.
//!
//! The workspace builds without external crates, so this module stands in
//! for `serde_json` where a tool must *read* JSON back (a recoverable
//! suite run reloading its `progress.json` ledger, the A/B tool reading
//! `BENCHMARK.json` and each benchmark run's last line) or write a document it
//! did not render by hand ([`Value::to_json`]). It parses
//! the full JSON grammar, including `\uXXXX` escapes: surrogate *pairs*
//! decode to the real supplementary-plane code point, and lone surrogates
//! are a parse error — report strings round-trip exactly, never silently
//! corrupting to U+FFFD.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects (`None` for other variants / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Path lookup: `value.path(&["engine", "node_rounds_per_sec"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&Value> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The document as text: an object's members one per line, indented
    /// two spaces per level, an array on one line. JSON has no non-finite
    /// numbers, so those are written as `null`. [`parse`] reads the text
    /// back to an equal value.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => out.push_str(&json_str(s)),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out, indent);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    let sep = if i > 0 { ",\n" } else { "\n" };
                    let _ = write!(out, "{sep}{:w$}{}: ", "", json_str(k), w = indent + 2);
                    v.write(out, indent + 2);
                }
                if !members.is_empty() {
                    let _ = write!(out, "\n{:indent$}", "");
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting depth [`parse`] accepts. The recursive
/// descent otherwise turns attacker-supplied (or simply corrupt) input
/// like `[[[[…` into a stack overflow — an abort, not a catchable error.
/// No legitimate report document nests past a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
///
/// # Errors
/// Returns the first syntax error, with its byte offset; documents
/// nesting containers deeper than [`MAX_DEPTH`] levels are rejected.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting level (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Enter one container level, rejecting documents past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            match cp {
                                // High surrogate: must be followed by a
                                // low surrogate; the pair decodes to one
                                // supplementary-plane code point.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 1;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c).expect("surrogate pair is a scalar"),
                                    );
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("lone low surrogate"));
                                }
                                // Every non-surrogate u16 is a scalar value.
                                _ => {
                                    out.push(char::from_u32(cp).expect("non-surrogate is a scalar"))
                                }
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // consume one UTF-8 scalar (input is a &str, so this is safe
                    // to do bytewise: copy continuation bytes with the lead)
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// Four hex digits of a `\uXXXX` escape (cursor past the `u`).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_schema() {
        let doc = r#"{
          "bench": "engine/flood", "n": 8192, "cores": 2,
          "engine": {"node_rounds_per_sec": 16530428, "allocations_per_node_round": 0.0134}
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("engine/flood"));
        assert_eq!(
            v.path(&["engine", "node_rounds_per_sec"]).unwrap().as_f64(),
            Some(16530428.0)
        );
        assert_eq!(v.get("cores").unwrap().as_f64(), Some(2.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_arrays_bools_null_and_escapes() {
        let v = parse(r#"[true, false, null, "a\"bA", [1, -2.5e-3]]"#).unwrap();
        let Value::Arr(items) = &v else { panic!() };
        assert_eq!(items[0], Value::Bool(true));
        assert_eq!(items[2], Value::Null);
        assert_eq!(items[3].as_str(), Some("a\"bA"));
        let Value::Arr(nums) = &items[4] else {
            panic!()
        };
        assert_eq!(nums[1].as_f64(), Some(-2.5e-3));
    }

    #[test]
    fn written_documents_parse_back_equal() {
        let doc = r#"{"schema": "awake-lab/ab/v1", "pairs": 30, "ok": true, "none": null,
          "w": {"ratios": [0.5, 1, -2.5e-3], "note": "a\"b\n", "empty": {}, "list": []}}"#;
        let v = parse(doc).unwrap();
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("\n  \"pairs\": 30,\n"), "{text}");
        assert!(text.contains("\"ratios\": [0.5, 1, -0.0025]"), "{text}");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null\n");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("{} extra").is_err());
        let e = parse("  @").unwrap_err();
        assert_eq!(e.offset, 2);
        assert!(e.to_string().contains("byte 2"));
    }

    #[test]
    fn round_trips_a_real_report() {
        // the actual shape written by the micro bench
        let p = crate::report::PerfStats {
            node_rounds: 100,
            messages: 300,
            allocations: 2,
            wall_ns: 5e5,
        };
        let b = crate::report::BenchReport {
            bench: "engine/flood".into(),
            n: 10,
            degree: 3,
            rounds: 5,
            cores: 4,
            engine: p,
            threaded_4_workers: p,
            threaded_scaling: crate::report::ThreadedScaling {
                n: 20,
                degree: 3,
                rounds: 5,
                serial: p,
                rows: vec![crate::report::ScalingRow {
                    workers: 4,
                    stats: p,
                }],
                w1_vs_serial: None,
            },
            phase_times: crate::report::PhaseTimesBench {
                workers: 4,
                dispatched_rounds: 4,
                inline_rounds: 1,
                partition_ns_per_round: 100.0,
                route_ns_per_round: 200.0,
                deliver_ns_per_round: 150.0,
                merge_ns_per_round: 75.0,
                inline_ns_per_round: 50.0,
            },
            edge_problems: crate::report::EdgeProblemsBench {
                n: 10,
                m: 15,
                matching: p,
                edge_coloring: p,
            },
        };
        let v = parse(&b.to_json()).unwrap();
        assert_eq!(
            v.path(&["phase_times", "route_ns_per_round"])
                .unwrap()
                .as_f64(),
            Some(200.0)
        );
        assert_eq!(
            v.path(&["engine", "allocations"]).unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            v.path(&["threaded_scaling", "w4_vs_serial"])
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            v.path(&["edge_problems", "matching", "node_rounds_per_sec"])
                .unwrap()
                .as_f64(),
            Some(2e5)
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // exactly MAX_DEPTH levels parse…
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        // …one more is a typed error, not a stack overflow
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "got {e}");
        // objects count toward the same limit, and a pathologically deep
        // document (far past any plausible real stack budget) still fails
        // cleanly
        let obj = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&obj).unwrap_err().message.contains("nesting"));
        let huge = "[".repeat(1_000_000);
        assert!(parse(&huge).unwrap_err().message.contains("nesting"));
        // siblings do not accumulate: depth is nesting, not total containers
        let wide = "[".to_string() + &"[],".repeat(500) + "[]]";
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn parses_unicode_strings() {
        let v = parse("\"Δ ≈ 8\"").unwrap();
        assert_eq!(v.as_str(), Some("Δ ≈ 8"));
    }

    #[test]
    fn decodes_surrogate_pairs_to_the_real_code_point() {
        // U+1F600 GRINNING FACE as an escaped surrogate pair
        let v = parse("\"\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // mixed: BMP escape, raw text, escaped pair (U+1F980 CRAB)
        let v = parse("\"x\\u0394y\\uD83E\\uDD80z\"").unwrap();
        assert_eq!(v.as_str(), Some("x\u{0394}y\u{1F980}z"));
        // boundary pairs: U+10000 and U+10FFFF
        assert_eq!(
            parse("\"\\uD800\\uDC00\"").unwrap().as_str(),
            Some("\u{10000}")
        );
        assert_eq!(
            parse("\"\\uDBFF\\uDFFF\"").unwrap().as_str(),
            Some("\u{10FFFF}")
        );
        // raw (unescaped) non-BMP text is untouched
        assert_eq!(parse("\"🦀\"").unwrap().as_str(), Some("🦀"));
    }

    #[test]
    fn rejects_lone_and_malformed_surrogates() {
        for doc in [
            r#""\uD800""#,       // lone high at end of string
            r#""\uD800x""#,      // high followed by a raw char
            r#""\uD800\n""#,     // high followed by a non-\u escape
            r#""\uD800\uD800""#, // high followed by another high
            r#""\uDC00""#,       // lone low
            r#""\uDE00\uD83D""#, // pair in the wrong order
        ] {
            let err = parse(doc).unwrap_err();
            assert!(
                err.message.contains("surrogate"),
                "{doc}: unexpected error {err}"
            );
        }
        // truncated pair tail
        assert!(parse(r#""\uD83D\uDE"#).is_err());
    }

    #[test]
    fn non_bmp_report_strings_round_trip_through_the_writer() {
        // A suite report whose scenario name needs a supplementary-plane
        // character: written by the report writer, read back by this
        // parser, byte-for-byte equal strings.
        let mut report = crate::report::Report {
            suite: "emoji 🦀 suite".into(),
            seed: 7,
            scenarios: vec![],
        };
        report.scenarios.push(crate::report::ScenarioReport {
            name: "mis/🦀-gnp-72/trivial \u{10FFFF}".into(),
            problem: "mis",
            family: "🦀-gnp-72".into(),
            algo: "trivial".into(),
            seed: 99,
            n: 4,
            m: 3,
            valid: true,
            awake_bound: 5,
            round_bound: 5,
            bound_ok: true,
            metrics: crate::report::ScenarioMetrics {
                rounds: 5,
                max_awake: 3,
                awake_p50: 2,
                awake_p99: 3,
                total_awake: 10,
                avg_awake: 2.5,
                counters: awake_sleeping::Counters {
                    messages_sent: 12,
                    messages_lost: 2,
                    awake_events: 10,
                    ..Default::default()
                },
            },
            timing: crate::report::Timing::default(),
        });
        for doc in [report.to_json(), report.canonical_json()] {
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("suite").unwrap().as_str(), Some("emoji 🦀 suite"));
            let Some(Value::Arr(rows)) = v.get("scenarios") else {
                panic!("scenarios array")
            };
            assert_eq!(
                rows[0].get("name").unwrap().as_str(),
                Some("mis/🦀-gnp-72/trivial \u{10FFFF}")
            );
            assert_eq!(rows[0].get("family").unwrap().as_str(), Some("🦀-gnp-72"));
        }
    }
}
