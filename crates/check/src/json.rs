//! JSON rendering and validation for lint reports.
//!
//! `semsim lint --format json` emits one report document per
//! invocation; the schema (version 1) is documented in
//! `docs/diagnostics.md` and kept stable for CI/editor integration:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "errors": 1,
//!   "warnings": 2,
//!   "files": [
//!     {
//!       "path": "device.cir",
//!       "errors": 1,
//!       "warnings": 2,
//!       "parse_error": null,
//!       "diagnostics": [
//!         {
//!           "code": "SC014",
//!           "severity": "warning",
//!           "message": "dead sweep: ...",
//!           "line": 8,
//!           "suggestions": [
//!             {
//!               "message": "delete the dead `sweep` directive",
//!               "applicability": "machine-applicable",
//!               "edits": [ { "line": 8, "replacement": null } ]
//!             }
//!           ]
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! A file that failed to parse carries `"parse_error": {"line": N,
//! "message": "..."}` and an empty `diagnostics` array, and counts as
//! one error. The container ships no serde; this module hand-rolls the
//! emitter and a small recursive-descent parser so the round-trip can
//! be tested offline.

use crate::{Diagnostics, Severity};

/// One linted file in a JSON report.
pub struct JsonFileReport<'a> {
    /// Path as given on the command line.
    pub path: &'a str,
    /// The findings (empty when the file failed to parse).
    pub diags: &'a Diagnostics,
    /// `(line, message)` when the file failed to parse.
    pub parse_error: Option<(usize, String)>,
}

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(&json_escape(value));
    out.push('"');
}

/// Renders a lint report over `files` as schema-version-1 JSON
/// (single line, newline-terminated).
pub fn report_to_json(files: &[JsonFileReport<'_>]) -> String {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for f in files {
        if f.parse_error.is_some() {
            errors += 1;
        }
        for d in f.diags.iter() {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema_version\":1,\"errors\":{errors},\"warnings\":{warnings},\"files\":["
    ));
    for (fi, f) in files.iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        let file_errors = f.parse_error.iter().count()
            + f.diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count();
        let file_warnings = f
            .diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        out.push('{');
        push_str_field(&mut out, "path", f.path);
        out.push_str(&format!(
            ",\"errors\":{file_errors},\"warnings\":{file_warnings},\"parse_error\":"
        ));
        match &f.parse_error {
            None => out.push_str("null"),
            Some((line, message)) => {
                out.push_str(&format!("{{\"line\":{line},"));
                push_str_field(&mut out, "message", message);
                out.push('}');
            }
        }
        out.push_str(",\"diagnostics\":[");
        for (di, d) in f.diags.iter().enumerate() {
            if di > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_field(&mut out, "code", d.code.code());
            out.push(',');
            push_str_field(&mut out, "severity", &d.severity.to_string());
            out.push(',');
            push_str_field(&mut out, "message", &d.message);
            out.push_str(&format!(",\"line\":{},\"suggestions\":[", d.span.line));
            if let Some(s) = &d.suggestion {
                out.push('{');
                push_str_field(&mut out, "message", &s.message);
                out.push(',');
                push_str_field(&mut out, "applicability", s.applicability.as_str());
                out.push_str(",\"edits\":[");
                for (ei, e) in s.edits.iter().enumerate() {
                    if ei > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"line\":{},\"replacement\":", e.line));
                    match &e.replacement {
                        None => out.push_str("null"),
                        Some(text) => {
                            out.push('"');
                            out.push_str(&json_escape(text));
                            out.push('"');
                        }
                    }
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// A parsed JSON value (just enough for schema validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value when this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(_) => self.parse_number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("invalid escape {other:?}"));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unexpected end of string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

fn require_number(obj: &Json, key: &str, at: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_number)
        .ok_or_else(|| format!("{at}: missing numeric `{key}`"))
}

fn require_str<'j>(obj: &'j Json, key: &str, at: &str) -> Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{at}: missing string `{key}`"))
}

fn require_array<'j>(obj: &'j Json, key: &str, at: &str) -> Result<&'j [Json], String> {
    obj.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{at}: missing array `{key}`"))
}

/// Validates a lint report against schema version 1.
///
/// # Errors
///
/// Returns a description of the first schema violation (missing or
/// mistyped field, unknown code shape, inconsistent counts).
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let version = require_number(&doc, "schema_version", "report")?;
    if version != 1.0 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let total_errors = require_number(&doc, "errors", "report")?;
    let total_warnings = require_number(&doc, "warnings", "report")?;
    let files = require_array(&doc, "files", "report")?;
    let mut errors = 0.0;
    let mut warnings = 0.0;
    for (fi, f) in files.iter().enumerate() {
        let at = format!("files[{fi}]");
        require_str(f, "path", &at)?;
        errors += require_number(f, "errors", &at)?;
        warnings += require_number(f, "warnings", &at)?;
        match f.get("parse_error") {
            Some(Json::Null) => {}
            Some(pe @ Json::Object(_)) => {
                require_number(pe, "line", &format!("{at}.parse_error"))?;
                require_str(pe, "message", &format!("{at}.parse_error"))?;
            }
            _ => return Err(format!("{at}: missing `parse_error` (object or null)")),
        }
        for (di, d) in require_array(f, "diagnostics", &at)?.iter().enumerate() {
            let at = format!("{at}.diagnostics[{di}]");
            let code = require_str(d, "code", &at)?;
            if crate::DiagCode::parse(code).is_empty() {
                return Err(format!("{at}: unknown code `{code}`"));
            }
            let severity = require_str(d, "severity", &at)?;
            if severity != "error" && severity != "warning" {
                return Err(format!("{at}: invalid severity `{severity}`"));
            }
            require_str(d, "message", &at)?;
            require_number(d, "line", &at)?;
            for (si, s) in require_array(d, "suggestions", &at)?.iter().enumerate() {
                let at = format!("{at}.suggestions[{si}]");
                require_str(s, "message", &at)?;
                let app = require_str(s, "applicability", &at)?;
                if app != "machine-applicable" && app != "maybe-incorrect" {
                    return Err(format!("{at}: invalid applicability `{app}`"));
                }
                for (ei, e) in require_array(s, "edits", &at)?.iter().enumerate() {
                    let at = format!("{at}.edits[{ei}]");
                    require_number(e, "line", &at)?;
                    match e.get("replacement") {
                        Some(Json::Null | Json::String(_)) => {}
                        _ => return Err(format!("{at}: missing `replacement` (string or null)")),
                    }
                }
            }
        }
    }
    if errors != total_errors || warnings != total_warnings {
        return Err(format!(
            "count mismatch: top-level {total_errors} errors / {total_warnings} warnings, \
             files sum to {errors} / {warnings}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixit::{Applicability, Edit, Suggestion};
    use crate::{DiagCode, Diagnostic, Span};

    fn sample_diags() -> Diagnostics {
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::new(
                DiagCode::DeadSweep,
                "dead sweep: \"quoted\" and\nnewline",
                Span::line(8),
            )
            .with_suggestion(Suggestion::new(
                "delete the dead `sweep` directive",
                Applicability::MachineApplicable,
                vec![Edit::delete(8)],
            )),
        );
        ds.push(Diagnostic::new(
            DiagCode::ConflictingStimuli,
            "conflicting stimuli",
            Span::line(3),
        ));
        ds
    }

    #[test]
    fn emitted_report_validates() {
        let diags = sample_diags();
        let clean = Diagnostics::new();
        let json = report_to_json(&[
            JsonFileReport {
                path: "a.cir",
                diags: &diags,
                parse_error: None,
            },
            JsonFileReport {
                path: "b.cir",
                diags: &clean,
                parse_error: Some((4, "unknown directive `bogus`".to_string())),
            },
        ]);
        validate_report(&json).expect("schema-valid");
    }

    #[test]
    fn round_trip_preserves_structure() {
        let diags = sample_diags();
        let json = report_to_json(&[JsonFileReport {
            path: "weird \"name\".cir",
            diags: &diags,
            parse_error: None,
        }]);
        let doc = parse_json(&json).expect("parses");
        assert_eq!(doc.get("errors"), Some(&Json::Number(1.0)));
        assert_eq!(doc.get("warnings"), Some(&Json::Number(1.0)));
        let files = doc.get("files").and_then(Json::as_array).expect("files");
        assert_eq!(
            files[0].get("path").and_then(Json::as_str),
            Some("weird \"name\".cir")
        );
        let ds = files[0]
            .get("diagnostics")
            .and_then(Json::as_array)
            .expect("diagnostics");
        assert_eq!(ds.len(), 2);
        let msg = ds[0].get("message").and_then(Json::as_str).expect("msg");
        assert!(msg.contains("\"quoted\" and\nnewline"));
        let suggestions = ds[0]
            .get("suggestions")
            .and_then(Json::as_array)
            .expect("suggestions");
        assert_eq!(
            suggestions[0].get("applicability").and_then(Json::as_str),
            Some("machine-applicable")
        );
    }

    #[test]
    fn validation_rejects_bad_documents() {
        assert!(validate_report("{}").is_err());
        assert!(validate_report("not json at all").is_err());
        assert!(
            validate_report("{\"schema_version\":2,\"errors\":0,\"warnings\":0,\"files\":[]}")
                .is_err()
        );
        // Count mismatch.
        assert!(
            validate_report("{\"schema_version\":1,\"errors\":1,\"warnings\":0,\"files\":[]}")
                .is_err()
        );
        // Unknown code.
        assert!(validate_report(
            "{\"schema_version\":1,\"errors\":0,\"warnings\":1,\"files\":[{\"path\":\"x\",\
             \"errors\":0,\"warnings\":1,\"parse_error\":null,\"diagnostics\":[{\"code\":\
             \"SC999\",\"severity\":\"warning\",\"message\":\"m\",\"line\":1,\
             \"suggestions\":[]}]}]}"
        )
        .is_err());
    }

    #[test]
    fn empty_report_is_valid() {
        let json = report_to_json(&[]);
        validate_report(&json).expect("empty report validates");
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let doc = parse_json("{\"k\":\"a\\u00e9\\n\\\"b\\\"\",\"n\":-1.5e3}").expect("parses");
        assert_eq!(doc.get("k").and_then(Json::as_str), Some("aé\n\"b\""));
        assert_eq!(doc.get("n").and_then(Json::as_number), Some(-1500.0));
    }
}
