//! Machine-readable output: plain JSON and SARIF 2.1.0.
//!
//! Serialization is hand-rolled (the linter is zero-dependency and the
//! build is offline), following the same pattern as the simulator's
//! JSON exporters. The SARIF document carries the full rule table as
//! `tool.driver.rules` so GitHub code scanning renders rule help text,
//! and every finding becomes a `result` with a `physicalLocation`
//! pointing at the repo-relative file and 1-based line.
//!
//! A minimal recursive-descent JSON parser ([`Json`], [`parse`]) lives
//! here too: the test suite round-trips the emitted SARIF through it
//! and asserts the schema shape, so a serialization typo (a missing
//! quote, a stray comma) fails in CI rather than at upload time.

use crate::rules::RULES;
use crate::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the `--json` report: a flat findings array plus
/// scan metadata, stable field order, one finding per line.
pub fn to_json(findings: &[Finding], files_scanned: usize, crates: &[&str]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"hmc-lint\",\n");
    let _ = write!(
        out,
        "  \"files_scanned\": {files_scanned},\n  \"crates\": ["
    );
    for (i, c) in crates.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape(c));
    }
    let _ = write!(
        out,
        "],\n  \"finding_count\": {},\n  \"findings\": [",
        findings.len()
    );
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"excerpt\": \"{}\"}}",
            escape(&f.file),
            f.line,
            escape(f.rule),
            escape(&f.excerpt)
        );
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders findings as a SARIF 2.1.0 document.
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"hmc-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.com/hmcsim\",\n");
    out.push_str("          \"version\": \"0.1.0\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        let _ = write!(
            out,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}",
            escape(r.name),
            escape(r.summary)
        );
        out.push_str(if i + 1 < RULES.len() { ",\n" } else { "\n" });
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let rule_index = RULES
            .iter()
            .position(|r| r.name == f.rule)
            .expect("every finding names a table rule");
        let _ = write!(
            out,
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": \"[{}] {}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"SRCROOT\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            escape(f.rule),
            rule_index,
            escape(f.rule),
            escape(&f.excerpt),
            escape(&f.file),
            f.line
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    if findings.is_empty() {
        // Keep the array present (and the file valid) on a clean scan.
        out.pop();
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// A parsed JSON value (test/validation aid; numbers keep only the
/// integer interpretation the SARIF schema needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; stored as f64 (line numbers fit exactly).
    Num(f64),
    /// String with escapes decoded.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is irrelevant to the shape checks.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member access for shape assertions: `j.get("runs")`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element access.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array length, if this is an array.
    pub fn arr_len(&self) -> Option<usize> {
        match self {
            Json::Arr(v) => Some(v.len()),
            _ => None,
        }
    }
}

/// Parses a JSON document. Returns `Err` with a byte offset and message
/// on malformed input.
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect_byte(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!("unexpected {:?} at offset {}", other, pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect_byte(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', got {:?} at {}", other, pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(v));
    }
    loop {
        v.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(v));
            }
            other => return Err(format!("expected ',' or ']', got {:?} at {}", other, pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(b, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("escape at end of input")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("short \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our shape
                        // checks; map them to the replacement character.
                        let ch = char::from_u32(cp).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, rule: &'static str, excerpt: &str) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            excerpt: excerpt.to_string(),
        }
    }

    #[test]
    fn json_report_round_trips() {
        let fs = vec![
            finding("crates/mem/src/a.rs", 3, "unwrap", "x.unwrap()"),
            finding(
                "crates/core/src/b.rs",
                9,
                "lossy-cast",
                "y as u8 // \"quoted\"",
            ),
        ];
        let doc = parse(&to_json(&fs, 42, &["types", "engine"])).expect("valid JSON");
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("hmc-lint"));
        assert_eq!(doc.get("files_scanned").and_then(Json::as_num), Some(42.0));
        assert_eq!(doc.get("finding_count").and_then(Json::as_num), Some(2.0));
        let f1 = doc
            .get("findings")
            .and_then(|f| f.idx(1))
            .expect("finding 1");
        assert_eq!(f1.get("line").and_then(Json::as_num), Some(9.0));
        assert_eq!(
            f1.get("excerpt").and_then(Json::as_str),
            Some("y as u8 // \"quoted\"")
        );
    }

    #[test]
    fn sarif_shape_round_trips() {
        let fs = vec![
            finding(
                "crates/host/src/host.rs",
                12,
                "wall-clock",
                "Instant::now()",
            ),
            finding("crates/mem/src/device.rs", 7, "layering", "upward import"),
        ];
        let doc = parse(&to_sarif(&fs)).expect("valid SARIF JSON");
        // Top-level schema shape.
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        assert!(doc
            .get("$schema")
            .and_then(Json::as_str)
            .is_some_and(|s| s.contains("sarif-2.1.0")));
        let run = doc.get("runs").and_then(|r| r.idx(0)).expect("one run");
        // Driver metadata and the full rule table.
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .expect("driver");
        assert_eq!(driver.get("name").and_then(Json::as_str), Some("hmc-lint"));
        let rules = driver.get("rules").expect("rules array");
        assert_eq!(rules.arr_len(), Some(RULES.len()));
        for (i, meta) in RULES.iter().enumerate() {
            let r = rules.idx(i).expect("rule entry");
            assert_eq!(r.get("id").and_then(Json::as_str), Some(meta.name));
            assert!(r
                .get("shortDescription")
                .and_then(|d| d.get("text"))
                .and_then(Json::as_str)
                .is_some_and(|t| !t.is_empty()));
        }
        // Results: ruleId/ruleIndex agree with the table, locations are
        // 1-based repo-relative positions.
        let results = run.get("results").expect("results");
        assert_eq!(results.arr_len(), Some(2));
        let r0 = results.idx(0).expect("result 0");
        assert_eq!(r0.get("ruleId").and_then(Json::as_str), Some("wall-clock"));
        let idx = r0
            .get("ruleIndex")
            .and_then(Json::as_num)
            .expect("ruleIndex") as usize;
        assert_eq!(RULES[idx].name, "wall-clock");
        let loc = r0
            .idx_path(&["locations"])
            .and_then(|l| l.idx(0))
            .and_then(|l| l.get("physicalLocation"))
            .expect("physicalLocation");
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str),
            Some("crates/host/src/host.rs")
        );
        assert_eq!(
            loc.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_num),
            Some(12.0)
        );
    }

    #[test]
    fn empty_sarif_is_valid_with_empty_results() {
        let doc = parse(&to_sarif(&[])).expect("valid empty SARIF");
        let results = doc
            .get("runs")
            .and_then(|r| r.idx(0))
            .and_then(|r| r.get("results"))
            .expect("results key present");
        assert_eq!(results.arr_len(), Some(0));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    impl Json {
        /// Tiny helper for the tests above: follow a key path.
        fn idx_path(&self, keys: &[&str]) -> Option<&Json> {
            keys.iter().try_fold(self, |j, k| j.get(k))
        }
    }
}
