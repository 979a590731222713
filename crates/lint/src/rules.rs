//! The four invariant rules.
//!
//! Each rule emits [`Finding`]s over the [`Workspace`] model; suppression via
//! `// piano-lint: allow(...)` annotations happens afterwards in `lib.rs` so
//! every rule stays purely a detector.

use crate::lexer::TokenKind;
use crate::model::{is_keyword, SourceFile, Workspace};
use crate::Finding;
use std::collections::BTreeSet;

pub const DSP_BIT_EXACT: &str = "dsp-bit-exact";
pub const WIRE_NO_PANIC: &str = "wire-no-panic";
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
pub const DECISION_DETERMINISM: &str = "decision-determinism";

/// Entry points of the remote-input surface: every function reachable from
/// these by name must be panic-free or carry an inventoried allow.
pub const WIRE_ROOTS: &[(&str, &str)] = &[
    ("Message", "decode"),
    ("AuthSession", "handle_message"),
    ("FrameReader", "next_frame"),
    ("ReactorServer", "run"),
    // Re-challenge surface: the client parses `Recheck`/`RecheckVerdict`
    // frames a (possibly hostile) gateway sends; the server halves are
    // already reachable from `run`.
    ("FeedHandle", "await_recheck"),
    ("FeedHandle", "answer_recheck"),
    ("FeedHandle", "await_recheck_verdict"),
];

/// The gateway's lock order — the ranks its `OrderedMutex`es carry at
/// runtime (`mod rank` in `crates/net/src/reactor.rs`): lower rank first;
/// equal or higher rank while held is an inversion.
const LOCK_RANKS: &[(&str, u32)] = &[("progress", 10), ("rng", 12), ("inbox", 40), ("core", 60)];

/// Blocking transport calls that must never run under a server lock.
const BLOCKING_IO: &[&str] = &[
    "write_all",
    "read_some",
    "read_exact",
    "read_timeout",
    "try_read",
    "read_frame",
    "read_frame_deadline",
    "flush",
];

fn bit_exact_scope(path: &str) -> bool {
    path == "crates/dsp/src/fft.rs"
        || path == "crates/dsp/src/sparse.rs"
        || path == "crates/dsp/src/simd.rs"
}

fn wire_scope(path: &str) -> bool {
    path.starts_with("crates/net/src/")
        || path == "crates/core/src/wire.rs"
        || path == "crates/core/src/stream.rs"
        || path == "crates/core/src/sync.rs"
        || path == "crates/core/src/pool.rs"
}

fn determinism_scope(path: &str) -> bool {
    path == "crates/core/src/detect.rs"
        || path == "crates/core/src/stream.rs"
        || path == "crates/core/src/continuum.rs"
}

fn lock_scope(path: &str) -> bool {
    path == "crates/net/src/reactor.rs"
}

pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    dsp_bit_exact(ws, &mut findings);
    wire_no_panic(ws, &mut findings);
    lock_discipline(ws, &mut findings);
    decision_determinism(ws, &mut findings);
    // The extractor re-walks nested items, so dedupe syntactic duplicates.
    findings.sort();
    findings.dedup();
    findings
}

/// Token indices belonging to test-only code in a file: bodies of `#[test]` /
/// `#[cfg(test)]` functions plus whole `#[cfg(test)]` modules.
fn test_token_set(ws: &Workspace, file_idx: usize) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    for f in ws
        .functions
        .iter()
        .filter(|f| f.file == file_idx && f.is_test)
    {
        set.extend(f.body.0..f.body.1);
    }
    for &(start, end) in &ws.files[file_idx].test_ranges {
        set.extend(start..end);
    }
    set
}

// ---------------------------------------------------------------------------
// Rule 1: dsp-bit-exact
// ---------------------------------------------------------------------------

/// The SIMD conformance contract: every backend must produce bit-identical
/// f64 results, so kernels may not use f32 arithmetic, fused multiply-add
/// (contraction changes rounding), or non-bitwise float comparison in
/// dispatch. `unsafe` requires a written SAFETY justification.
fn dsp_bit_exact(ws: &Workspace, out: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        if !bit_exact_scope(&file.rel_path) {
            continue;
        }
        let test_toks = test_token_set(ws, fi);
        let t = &file.lexed.tokens;
        for (j, tok) in t.iter().enumerate() {
            if test_toks.contains(&j) {
                continue;
            }
            if tok.kind == TokenKind::Ident {
                if tok.is("f32") {
                    out.push(Finding::new(
                        DSP_BIT_EXACT,
                        &file.rel_path,
                        tok.line,
                        "f32 in a bit-exact kernel module (the SIMD conformance \
                         contract requires f64 throughout)",
                    ));
                } else if tok.is("mul_add") || tok.text.to_ascii_lowercase().contains("fma") {
                    out.push(Finding::new(
                        DSP_BIT_EXACT,
                        &file.rel_path,
                        tok.line,
                        &format!(
                            "`{}` fuses multiply-add; contraction changes rounding and \
                             breaks cross-backend bit-exactness",
                            tok.text
                        ),
                    ));
                } else if tok.is("unsafe") && !unsafe_is_justified(file, tok.line) {
                    out.push(Finding::new(
                        DSP_BIT_EXACT,
                        &file.rel_path,
                        tok.line,
                        "`unsafe` without a `// SAFETY:` (or `# Safety` doc) justification",
                    ));
                }
            } else if (tok.is("==") || tok.is("!="))
                && file.rel_path.ends_with("simd.rs")
                && float_compare_without_to_bits(file, t, j)
            {
                out.push(Finding::new(
                    DSP_BIT_EXACT,
                    &file.rel_path,
                    tok.line,
                    "float compared with ==/!= in dispatch; compare `.to_bits()` instead",
                ));
            }
        }
    }
}

/// `==`/`!=` adjacent to a float literal, with no `.to_bits()` on the line.
fn float_compare_without_to_bits(file: &SourceFile, t: &[crate::lexer::Token], j: usize) -> bool {
    let adjacent_float = (j > 0 && t[j - 1].is_float_literal())
        || t.get(j + 1).is_some_and(|n| n.is_float_literal());
    if !adjacent_float {
        return false;
    }
    let line = t[j].line;
    !t.iter().any(|o| o.line == line && o.is("to_bits"))
        && !file.lexed.comment_text_on(line).contains("to_bits")
}

/// A SAFETY justification counts if it appears in a comment on the same
/// line, or in the contiguous block of comment-only / attribute lines
/// immediately above.
fn unsafe_is_justified(file: &SourceFile, line: usize) -> bool {
    let has_safety = |l: usize| {
        let text = file.lexed.comment_text_on(l);
        text.contains("SAFETY") || text.contains("Safety")
    };
    if has_safety(line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if file.lexed.is_comment_only(l) {
            if has_safety(l) {
                return true;
            }
            continue;
        }
        if file.attr_lines.contains(&l) {
            continue;
        }
        break;
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 2: wire-no-panic
// ---------------------------------------------------------------------------

/// A remote peer must never be able to take the process down: on every
/// function reachable from the wire entry points, panicking constructs are
/// forbidden — `.unwrap()`, `.expect(..)`, the panic macro family, and
/// slice indexing with computed offsets in functions that never consult
/// `.get`/`.len`/`.is_empty`/`.min`/`.clamp`.
fn wire_no_panic(ws: &Workspace, out: &mut Vec<Finding>) {
    let reachable = ws.reachable_from(WIRE_ROOTS);
    for (idx, f) in ws.functions.iter().enumerate() {
        if f.is_test || !reachable.contains(&idx) {
            continue;
        }
        let file = ws.file_of(f);
        if !wire_scope(&file.rel_path) {
            continue;
        }
        let t = &file.lexed.tokens;
        let body = f.body.0..f.body.1.min(t.len());
        let guarded = t[body.clone()].iter().enumerate().any(|(k, tok)| {
            let j = body.start + k;
            tok.kind == TokenKind::Ident
                && matches!(
                    tok.text.as_str(),
                    "get" | "len" | "is_empty" | "min" | "clamp"
                )
                && j > 0
                && t[j - 1].is(".")
        });
        for j in body.clone() {
            let tok = &t[j];
            if tok.kind == TokenKind::Ident {
                let called = t.get(j + 1).is_some_and(|n| n.is("("));
                let method = j > 0 && t[j - 1].is(".");
                if called && method && (tok.is("unwrap") || tok.is("expect")) {
                    out.push(Finding::new(
                        WIRE_NO_PANIC,
                        &file.rel_path,
                        tok.line,
                        &format!(
                            "`.{}(..)` in `{}`, which is reachable from the wire \
                             (roots: Message::decode, AuthSession::handle_message, \
                             FrameReader::next_frame, ReactorServer::run)",
                            tok.text, f.key
                        ),
                    ));
                } else if t.get(j + 1).is_some_and(|n| n.is("!"))
                    && matches!(
                        tok.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    )
                {
                    out.push(Finding::new(
                        WIRE_NO_PANIC,
                        &file.rel_path,
                        tok.line,
                        &format!("`{}!` in wire-reachable `{}`", tok.text, f.key),
                    ));
                }
            } else if tok.is("[") && !guarded && risky_index(t, j, body.end) {
                out.push(Finding::new(
                    WIRE_NO_PANIC,
                    &file.rel_path,
                    tok.line,
                    &format!(
                        "computed slice index in wire-reachable `{}` with no \
                         `.get`/`.len` guard in the function",
                        f.key
                    ),
                ));
            }
        }
    }
}

/// An index expression `expr[...]` whose bracket content mixes identifiers
/// with arithmetic or a range — the classic out-of-bounds panic shape.
fn risky_index(t: &[crate::lexer::Token], open: usize, limit: usize) -> bool {
    if open == 0 {
        return false;
    }
    let prev = &t[open - 1];
    let indexes =
        (prev.kind == TokenKind::Ident && !is_keyword(&prev.text)) || prev.is(")") || prev.is("]");
    if !indexes {
        return false;
    }
    let mut depth = 0i32;
    let mut has_ident = false;
    let mut has_op = false;
    for tok in t.iter().take(limit).skip(open) {
        if tok.is("[") {
            depth += 1;
        } else if tok.is("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if tok.kind == TokenKind::Ident && !is_keyword(&tok.text) {
            has_ident = true;
        } else if matches!(tok.text.as_str(), "+" | "-" | "*" | "/" | ".." | "..=") {
            has_op = true;
        }
    }
    has_ident && has_op
}

// ---------------------------------------------------------------------------
// Rule 3: lock-discipline
// ---------------------------------------------------------------------------

/// While any server lock guard is live: no blocking transport I/O, and any
/// further `.lock()` must target a strictly higher rank than every held
/// lock (the runtime `OrderedMutex` checker enforces the same order in
/// debug builds; this rule catches it before the code ever runs).
fn lock_discipline(ws: &Workspace, out: &mut Vec<Finding>) {
    let rank_of = |name: &str| LOCK_RANKS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r);
    for f in ws.functions.iter().filter(|f| !f.is_test) {
        let file = ws.file_of(f);
        if !lock_scope(&file.rel_path) {
            continue;
        }
        let t = &ws.files[f.file].lexed.tokens;
        let body = f.body.0..f.body.1.min(t.len());
        // (binding name, lock field identity, brace depth at binding)
        let mut guards: Vec<(String, String, i32)> = Vec::new();
        let mut pending_let: Option<String> = None;
        let mut depth = 0i32;
        for j in body.clone() {
            let tok = &t[j];
            if tok.is("{") {
                depth += 1;
                pending_let = None;
            } else if tok.is("}") {
                depth -= 1;
                guards.retain(|&(_, _, d)| d <= depth);
                pending_let = None;
            } else if tok.is(";") {
                pending_let = None;
            } else if tok.is("let") {
                let mut k = j + 1;
                if t.get(k).is_some_and(|n| n.is("mut")) {
                    k += 1;
                }
                // `let Err(e) = ...` / `let (a, b) = ...` destructure a
                // pattern — the binding is never the guard itself.
                pending_let = t
                    .get(k)
                    .filter(|n| n.kind == TokenKind::Ident)
                    .filter(|_| !t.get(k + 1).is_some_and(|n| n.is("(")))
                    .map(|n| n.text.clone());
            } else if tok.is("drop")
                && t.get(j + 1).is_some_and(|n| n.is("("))
                && t.get(j + 3).is_some_and(|n| n.is(")"))
            {
                if let Some(name) = t.get(j + 2).map(|n| n.text.clone()) {
                    guards.retain(|(g, _, _)| *g != name);
                }
            } else if tok.is("lock")
                && j > 0
                && t[j - 1].is(".")
                && t.get(j + 1).is_some_and(|n| n.is("("))
            {
                let identity = (j >= 2)
                    .then(|| &t[j - 2])
                    .filter(|id| id.kind == TokenKind::Ident)
                    .map(|id| id.text.clone());
                let new_rank = identity.as_deref().and_then(&rank_of);
                if let (Some(id), Some(new_rank)) = (&identity, new_rank) {
                    for (_, held, _) in &guards {
                        if let Some(held_rank) = rank_of(held) {
                            if held_rank >= new_rank {
                                out.push(Finding::new(
                                    LOCK_DISCIPLINE,
                                    &file.rel_path,
                                    tok.line,
                                    &format!(
                                        "`{id}` (rank {new_rank}) locked while `{held}` \
                                         (rank {held_rank}) is held in `{}`; the documented \
                                         order is progress → rng → inbox → ids → core",
                                        f.key
                                    ),
                                ));
                            }
                        }
                    }
                }
                // `x.lock().method(..)` is a statement temporary: the guard
                // dies at the semicolon, so it is order-checked above but
                // never becomes a held lock. `lock()` takes no arguments, so
                // its call closes at `j + 2`.
                let chained = t.get(j + 3).is_some_and(|n| n.is("."));
                if let (false, Some(name), Some(id)) = (chained, pending_let.take(), identity) {
                    guards.push((name, id, depth));
                }
            } else if tok.kind == TokenKind::Ident
                && !guards.is_empty()
                && BLOCKING_IO.contains(&tok.text.as_str())
                && t.get(j + 1).is_some_and(|n| n.is("("))
            {
                let held: Vec<&str> = guards.iter().map(|(_, id, _)| id.as_str()).collect();
                out.push(Finding::new(
                    LOCK_DISCIPLINE,
                    &file.rel_path,
                    tok.line,
                    &format!(
                        "blocking `{}(..)` while holding {} in `{}`; release server \
                         locks before touching the transport",
                        tok.text,
                        held.join(", "),
                        f.key
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: decision-determinism
// ---------------------------------------------------------------------------

/// The detection and streaming-decision code must be a pure function of its
/// inputs: no wall-clock reads, no hash-order iteration. (Deadline logic
/// lives in `piano-net`, outside this scope.)
fn decision_determinism(ws: &Workspace, out: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        if !determinism_scope(&file.rel_path) {
            continue;
        }
        let test_toks = test_token_set(ws, fi);
        for (j, tok) in file.lexed.tokens.iter().enumerate() {
            if test_toks.contains(&j) || tok.kind != TokenKind::Ident {
                continue;
            }
            let msg = match tok.text.as_str() {
                "Instant" | "SystemTime" => Some(format!(
                    "`{}` in decision code; scans must be a pure function of \
                     samples and config (clock reads belong in piano-net)",
                    tok.text
                )),
                "HashMap" | "HashSet" => Some(format!(
                    "`{}` in decision code; iteration order would leak into \
                     results — use BTreeMap/BTreeSet",
                    tok.text
                )),
                _ => None,
            };
            if let Some(msg) = msg {
                out.push(Finding::new(
                    DECISION_DETERMINISM,
                    &file.rel_path,
                    tok.line,
                    &msg,
                ));
            }
        }
    }
}
