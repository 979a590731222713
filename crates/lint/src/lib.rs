//! # piano-lint
//!
//! A from-scratch static-analysis pass that enforces the workspace's four
//! load-bearing contracts at CI time:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `dsp-bit-exact` | kernel modules are f64-only, FMA-free, and justify `unsafe` |
//! | `wire-no-panic` | nothing reachable from the wire entry points can panic |
//! | `lock-discipline` | server locks follow the documented rank order; no blocking I/O under a guard |
//! | `decision-determinism` | detection code reads no clocks and iterates no hash maps |
//!
//! The pass is a lightweight lexer plus an item/call-graph extractor — no
//! `syn`, no dependencies — so it runs as `cargo run -p piano-lint` anywhere
//! the toolchain does. Reachability is resolved by *name* and deliberately
//! over-approximates: a qualified call `Type::name(..)` matches exactly, an
//! unqualified or method call matches every scanned function of that name.
//!
//! ## The escape hatch
//!
//! A finding can be suppressed, visibly, with an annotation on the offending
//! line or on its own comment line directly above:
//!
//! ```text
//! // piano-lint: allow(wire-no-panic, reason = "debug builds must fail loudly at the misordered lock")
//! panic!("lock-order violation: acquiring `{name}` (rank {rank})");
//! ```
//!
//! The `reason` is mandatory; every allow is listed in the report's
//! inventory (including unused ones), so suppressions are reviewable diffs,
//! never silent.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod model;
pub mod rules;

use model::Workspace;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// All rule names, for annotation validation.
pub const RULES: &[&str] = &[
    rules::DSP_BIT_EXACT,
    rules::WIRE_NO_PANIC,
    rules::LOCK_DISCIPLINE,
    rules::DECISION_DETERMINISM,
];

/// Rule name used for malformed `piano-lint:` annotations themselves; such
/// findings cannot be suppressed.
pub const ALLOW_SYNTAX: &str = "allow-syntax";

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: usize, message: &str) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.to_string(),
        }
    }
}

/// One parsed `// piano-lint: allow(rule, reason = "...")` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub file: String,
    /// Line of the annotation comment.
    pub line: usize,
    pub rule: String,
    pub reason: String,
    /// Source lines the allow covers (the annotated statement).
    pub covers: (usize, usize),
    /// How many findings this allow suppressed.
    pub used: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression — these fail the gate.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an allow, kept for the inventory.
    pub suppressed: Vec<Finding>,
    /// Every allow annotation in the scanned set, used or not.
    pub allows: Vec<Allow>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            let _ = writeln!(
                out,
                "piano-lint: clean ({} finding(s) suppressed by inventoried allows)",
                self.suppressed.len()
            );
        } else {
            let _ = writeln!(out, "piano-lint: {} finding(s)", self.findings.len());
            for f in &self.findings {
                let _ = writeln!(out, "  [{}] {}:{} — {}", f.rule, f.file, f.line, f.message);
            }
        }
        if !self.allows.is_empty() {
            let _ = writeln!(
                out,
                "\nallow inventory ({} annotation(s)):",
                self.allows.len()
            );
            for a in &self.allows {
                let status = if a.used > 0 {
                    format!("suppresses {}", a.used)
                } else {
                    "UNUSED".to_string()
                };
                let _ = writeln!(
                    out,
                    "  {}:{} allow({}) [{}] — {}",
                    a.file, a.line, a.rule, status, a.reason
                );
            }
        }
        out
    }
}

/// The files each rule needs, relative to the scan root. Missing files are
/// skipped, which lets the same entry point run over the partial file trees
/// used as test fixtures.
const SCAN_FILES: &[&str] = &[
    "crates/dsp/src/fft.rs",
    "crates/dsp/src/sparse.rs",
    "crates/dsp/src/simd.rs",
    "crates/core/src/wire.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/detect.rs",
    "crates/core/src/continuum.rs",
];

/// Run the full pass over a workspace root.
pub fn run(root: &Path) -> Report {
    let mut ws = Workspace::default();
    let mut paths: Vec<String> = SCAN_FILES.iter().map(|s| s.to_string()).collect();
    // Every file of the net crate is wire-facing.
    let net_dir = root.join("crates/net/src");
    if let Ok(entries) = fs::read_dir(&net_dir) {
        let mut net: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "rs"))
            .filter_map(|e| e.file_name().into_string().ok())
            .map(|name| format!("crates/net/src/{name}"))
            .collect();
        net.sort();
        paths.extend(net);
    }
    for rel in paths {
        let path = root.join(&rel);
        if let Ok(src) = fs::read_to_string(&path) {
            ws.add_file(rel, lexer::lex(&src));
        }
    }

    let raw = rules::run_all(&ws);
    let (mut allows, mut bad_allow_findings) = collect_allows(&ws);

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        let hit = allows.iter_mut().find(|a| {
            a.file == f.file && a.rule == f.rule && (a.covers.0..=a.covers.1).contains(&f.line)
        });
        match hit {
            Some(a) => {
                a.used += 1;
                suppressed.push(f);
            }
            None => findings.push(f),
        }
    }
    findings.append(&mut bad_allow_findings);
    findings.sort();
    Report {
        findings,
        suppressed,
        allows,
    }
}

/// Parse every `piano-lint: allow(...)` annotation in the scanned files and
/// compute the statement span each one covers.
fn collect_allows(ws: &Workspace) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for file in &ws.files {
        for c in &file.lexed.comments {
            let Some(at) = c.text.find("piano-lint:") else {
                continue;
            };
            let tail = &c.text[at..];
            match parse_allow(tail) {
                Ok((rule, reason)) => {
                    if !RULES.contains(&rule.as_str()) {
                        bad.push(Finding::new(
                            ALLOW_SYNTAX,
                            &file.rel_path,
                            c.line,
                            &format!("allow names unknown rule `{rule}`"),
                        ));
                        continue;
                    }
                    let covers = coverage_span(file, c.line);
                    allows.push(Allow {
                        file: file.rel_path.clone(),
                        line: c.line,
                        rule,
                        reason,
                        covers,
                        used: 0,
                    });
                }
                Err(why) => {
                    bad.push(Finding::new(ALLOW_SYNTAX, &file.rel_path, c.line, why));
                }
            }
        }
    }
    (allows, bad)
}

/// Grammar: `piano-lint: allow(<rule>, reason = "<non-empty>")`.
fn parse_allow(text: &str) -> Result<(String, String), &'static str> {
    let rest = text
        .strip_prefix("piano-lint:")
        .ok_or("malformed piano-lint annotation")?
        .trim_start();
    let rest = rest
        .strip_prefix("allow(")
        .ok_or("expected `allow(<rule>, reason = \"...\")` after `piano-lint:`")?;
    let rule_end = rest
        .find([',', ')'])
        .ok_or("unterminated allow annotation")?;
    let rule = rest[..rule_end].trim().to_string();
    if rule.is_empty() {
        return Err("allow annotation is missing a rule name");
    }
    let rest = &rest[rule_end..];
    let Some(reason_at) = rest.find("reason") else {
        return Err("allow annotation is missing the mandatory `reason = \"...\"`");
    };
    let after = rest[reason_at + "reason".len()..].trim_start();
    let after = after
        .strip_prefix('=')
        .ok_or("expected `reason = \"...\"`")?
        .trim_start();
    let after = after
        .strip_prefix('"')
        .ok_or("the allow reason must be a quoted string")?;
    let end = after.find('"').ok_or("unterminated allow reason string")?;
    let reason = after[..end].trim().to_string();
    if reason.is_empty() {
        return Err("the allow reason must not be empty");
    }
    Ok((rule, reason))
}

/// Source lines an allow on `line` covers.
///
/// Trailing annotation (code on the same line): that line only. Standalone
/// comment: skip the remaining comment/attribute block downward to the
/// first code line, then extend over the annotated statement — up to the
/// first `;`, `,`, `{` or `}` at bracket depth zero — so a rustfmt-wrapped
/// expression stays covered.
fn coverage_span(file: &model::SourceFile, line: usize) -> (usize, usize) {
    if file.lexed.token_lines.contains(&line) && !file.attr_lines.contains(&line) {
        return (line, line);
    }
    let mut anchor = line + 1;
    let last_line = file
        .lexed
        .token_lines
        .iter()
        .next_back()
        .copied()
        .unwrap_or(line);
    while anchor <= last_line
        && (file.lexed.is_comment_only(anchor)
            || file.attr_lines.contains(&anchor)
            || (!file.lexed.token_lines.contains(&anchor)
                && file.lexed.comment_lines.contains(&anchor)))
    {
        anchor += 1;
    }
    if !file.lexed.token_lines.contains(&anchor) {
        // Blank line or EOF right below the annotation: covers nothing.
        return (line, line);
    }
    let t = &file.lexed.tokens;
    let Some(start_idx) = t.iter().position(|tok| tok.line >= anchor) else {
        return (anchor, anchor);
    };
    let mut depth = 0i32;
    let mut end_line = anchor;
    for tok in &t[start_idx..] {
        end_line = tok.line;
        match tok.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" | "," | "{" | "}" if depth <= 0 => break,
            _ => {}
        }
    }
    (anchor, end_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_grammar_accepts_the_documented_form() {
        let (rule, reason) =
            parse_allow("piano-lint: allow(wire-no-panic, reason = \"worker poisoning\")").unwrap();
        assert_eq!(rule, "wire-no-panic");
        assert_eq!(reason, "worker poisoning");
    }

    #[test]
    fn allow_grammar_rejects_missing_reason() {
        assert!(parse_allow("piano-lint: allow(wire-no-panic)").is_err());
        assert!(parse_allow("piano-lint: allow(wire-no-panic, reason = \"\")").is_err());
    }

    #[test]
    fn standalone_allow_covers_the_wrapped_statement_below() {
        let src = "fn f() {\n    // piano-lint: allow(wire-no-panic, reason = \"x\")\n    let v = h\n        .join()\n        .expect(\"boom\");\n}\n";
        let mut ws = Workspace::default();
        ws.add_file("crates/net/src/x.rs".into(), lexer::lex(src));
        let span = coverage_span(&ws.files[0], 2);
        assert_eq!(span, (3, 5));
    }
}
