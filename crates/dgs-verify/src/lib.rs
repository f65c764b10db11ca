//! Static concurrency-hygiene audit for the workspace.
//!
//! A hand-rolled Rust source scanner (no dependencies, no syn): a small
//! lexer splits every line into *code text* and *comment text* (string
//! and char literals are blanked out of the code text so patterns never
//! match inside them), and a set of rules runs over the result:
//!
//! * **R1 `unsafe-needs-safety`** — every line of code containing the
//!   `unsafe` keyword must have a `// SAFETY:` comment on the same line
//!   or within the preceding few lines.
//! * **R2 `ordering-needs-justification`** — every non-SeqCst atomic
//!   ordering token (`Relaxed`, `Acquire`, `Release`, `AcqRel`) outside
//!   the `dgs-sync` facade must have an `// ORDERING:` comment nearby.
//!   SeqCst is the default-safe ordering and needs no note.
//! * **R3 `atomics-via-facade`** — no code outside `crates/dgs-sync`
//!   may name `std::sync::atomic` / `core::sync::atomic` directly; the
//!   facade is the single choke point, which is what lets the model
//!   checker swap the primitives under `--cfg dgs_model`. Its second
//!   half, `clock-via-facade`, holds the thread driver
//!   (`crates/dgs-runtime/src/thread_driver/`) to the same seam for
//!   time and threads: outside test code it may not name `std::time`
//!   or `std::thread`, only `dgs_sync::time` / `dgs_sync::thread`, so
//!   a virtual clock can take their place in one spot.
//! * **R4 `hot-path-no-unwrap`** — an allowlisted set of hot-path
//!   modules must not call `.unwrap()` / `.expect(` outside test code.
//! * **R5 `deny-unsafe-op-in-unsafe-fn`** — any crate containing
//!   `unsafe` code must carry `#![deny(unsafe_op_in_unsafe_fn)]` at its
//!   root.
//!
//! The binary (`dgs-verify audit`) walks the workspace, applies the
//! rules, writes a machine-readable JSON report, and exits nonzero on
//! any violation — CI treats that as a hard gate.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How many preceding lines a `// SAFETY:` / `// ORDERING:` comment may
/// sit above the line it justifies (blank and comment-only lines count).
const SAFETY_WINDOW: usize = 8;
const ORDERING_WINDOW: usize = 10;

/// Path prefixes (relative, `/`-separated) where `.unwrap()`/`.expect(`
/// are banned outside test code: the lock-free message plane and the
/// always-on metrics hot paths, where a panic would take down a worker.
const NO_UNWRAP_ALLOWLIST: &[&str] = &[
    "vendor/crossbeam/src/spsc.rs",
    "crates/dgs-metrics/src/histogram.rs",
    "crates/dgs-metrics/src/rate.rs",
];

/// Path prefixes exempt from R2/R3: the facade crate itself is where
/// the raw primitives and per-ordering semantics legitimately live.
const FACADE_PREFIX: &str = "crates/dgs-sync";

/// Where R3 also bans `std::time` / `std::thread` outside test code.
const CLOCK_SEAM_PREFIX: &str = "crates/dgs-runtime/src/thread_driver/";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

#[derive(Debug, Default)]
pub struct AuditReport {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
}

impl AuditReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Hand-rolled JSON (the workspace is offline; no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"violation_count\": {},", self.violations.len());
        s.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(v.rule),
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            );
            s.push_str(if i + 1 < self.violations.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Lexer: split source into per-line code text and comment text
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with string/char literal contents blanked out.
    pub code: String,
    /// Concatenated comment text on this line (line, block, and doc).
    pub comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    LineComment,
    /// Nested block comments (Rust allows nesting).
    BlockComment(u32),
    Str,
    /// Raw string with this many `#`s in the delimiter.
    RawStr(u32),
    Char,
}

/// Split `src` into lines of (code, comment) text. The lexer is
/// deliberately approximate (it is a hygiene scanner, not a compiler)
/// but handles nested block comments, raw strings, escapes, and the
/// lifetime-vs-char-literal ambiguity well enough for this codebase.
pub fn lex_lines(src: &str) -> Vec<Line> {
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut state = LexState::Normal;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == LexState::LineComment {
                state = LexState::Normal;
            }
            lines.push(Line::default());
            i += 1;
            continue;
        }
        let cur = lines.last_mut().expect("lines is never empty");
        match state {
            LexState::Normal => {
                let next = chars.get(i + 1).copied();
                match (c, next) {
                    ('/', Some('/')) => {
                        state = LexState::LineComment;
                        i += 2;
                        continue;
                    }
                    ('/', Some('*')) => {
                        state = LexState::BlockComment(1);
                        i += 2;
                        continue;
                    }
                    ('r', Some('"')) | ('r', Some('#')) => {
                        // Possible raw string: r"..." or r#"..."#
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            cur.code.push_str("\"\"");
                            state = LexState::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                    ('"', _) => {
                        cur.code.push_str("\"\"");
                        state = LexState::Str;
                        i += 1;
                        continue;
                    }
                    ('\'', _) => {
                        // Lifetime ('a) vs char literal ('a'). A char
                        // literal closes with ' within a few chars; a
                        // lifetime is ' + ident with no closing quote.
                        let is_char = matches!(
                            (chars.get(i + 1), chars.get(i + 2)),
                            (Some('\\'), _) | (Some(_), Some('\''))
                        );
                        if is_char {
                            cur.code.push_str("' '");
                            state = LexState::Char;
                            i += 1;
                            continue;
                        }
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                }
            }
            LexState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            LexState::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                match (c, next) {
                    ('*', Some('/')) => {
                        state = if depth == 1 {
                            LexState::Normal
                        } else {
                            LexState::BlockComment(depth - 1)
                        };
                        i += 2;
                    }
                    ('/', Some('*')) => {
                        state = LexState::BlockComment(depth + 1);
                        cur.comment.push_str("/*");
                        i += 2;
                    }
                    _ => {
                        cur.comment.push(c);
                        i += 1;
                    }
                }
            }
            LexState::Str => match c {
                '\\' => i += 2,
                '"' => {
                    state = LexState::Normal;
                    i += 1;
                }
                _ => i += 1,
            },
            LexState::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        state = LexState::Normal;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                i += 1;
            }
            LexState::Char => match c {
                '\\' => i += 2,
                '\'' => {
                    state = LexState::Normal;
                    i += 1;
                }
                _ => i += 1,
            },
        }
    }
    lines
}

// ---------------------------------------------------------------------
// Word matching helpers
// ---------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Does `haystack` contain `word` delimited by non-identifier chars?
pub fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok =
            at == 0 || !is_ident_char(haystack[..at].chars().next_back().expect("non-empty"));
        let after = haystack[at + word.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

fn comment_window_has(lines: &[Line], at: usize, window: usize, marker: &str) -> bool {
    let lo = at.saturating_sub(window);
    lines[lo..=at].iter().any(|l| l.comment.contains(marker))
}

/// Track `#[cfg(test)] mod` regions so R4 skips test code. Returns a
/// per-line bool: true when the line is inside such a module.
fn test_mod_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim();
        let is_cfg_test = code.contains("#[cfg(test)]")
            || code.contains("#[cfg(all(test") && code.contains("))]");
        if is_cfg_test {
            // Find the mod's opening brace, then match to its close.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                mask[j] = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

const NON_SEQCST_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// Scan one source file (pure function; unit-testable on strings).
/// `rel_path` uses `/` separators relative to the workspace root.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let lines = lex_lines(src);
    let in_facade = rel_path.starts_with(FACADE_PREFIX);
    let no_unwrap = NO_UNWRAP_ALLOWLIST.contains(&rel_path);
    let clock_seam = rel_path.starts_with(CLOCK_SEAM_PREFIX);
    let tests = test_mod_mask(&lines);
    let mut out = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = &line.code;

        // R1: unsafe needs a SAFETY comment.
        if contains_word(code, "unsafe")
            && !comment_window_has(&lines, idx, SAFETY_WINDOW, "SAFETY:")
        {
            out.push(Violation {
                rule: "unsafe-needs-safety",
                file: rel_path.to_string(),
                line: lineno,
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines"
                ),
            });
        }

        // R2: non-SeqCst orderings need an ORDERING justification.
        if !in_facade {
            for ord in NON_SEQCST_ORDERINGS {
                if contains_word(code, ord)
                    && !comment_window_has(&lines, idx, ORDERING_WINDOW, "ORDERING:")
                {
                    out.push(Violation {
                        rule: "ordering-needs-justification",
                        file: rel_path.to_string(),
                        line: lineno,
                        message: format!(
                            "non-SeqCst ordering `{ord}` without an `// ORDERING:` comment \
                             within {ORDERING_WINDOW} lines"
                        ),
                    });
                    break; // one violation per line is enough
                }
            }
        }

        // R3: atomics only through the facade.
        if !in_facade
            && (code.contains("std::sync::atomic") || code.contains("core::sync::atomic"))
        {
            out.push(Violation {
                rule: "atomics-via-facade",
                file: rel_path.to_string(),
                line: lineno,
                message: "direct std/core::sync::atomic reference; import via dgs_sync::atomic"
                    .to_string(),
            });
        }
        if clock_seam
            && !tests[idx]
            && (code.contains("std::time") || code.contains("std::thread"))
        {
            out.push(Violation {
                rule: "clock-via-facade",
                file: rel_path.to_string(),
                line: lineno,
                message: "std::time / std::thread in the thread driver; import via \
                          dgs_sync::time / dgs_sync::thread"
                    .to_string(),
            });
        }

        // R4: hot-path modules may not unwrap/expect outside tests.
        if no_unwrap && !tests[idx] && (code.contains(".unwrap()") || code.contains(".expect("))
        {
            out.push(Violation {
                rule: "hot-path-no-unwrap",
                file: rel_path.to_string(),
                line: lineno,
                message: "unwrap/expect on a hot-path module (allowlisted in dgs-verify)"
                    .to_string(),
            });
        }
    }
    out
}

/// Does this file contain any `unsafe` code (outside comments/strings)?
fn has_unsafe(src: &str) -> bool {
    lex_lines(src).iter().any(|l| contains_word(&l.code, "unsafe"))
}

fn has_deny_unsafe_op(src: &str) -> bool {
    lex_lines(src)
        .iter()
        .any(|l| l.code.contains("#![deny(unsafe_op_in_unsafe_fn)]"))
}

// ---------------------------------------------------------------------
// Filesystem walk + R5
// ---------------------------------------------------------------------

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | ".github" | "node_modules") {
                continue;
            }
            walk_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Nearest ancestor directory (within `root`) containing a Cargo.toml.
fn crate_root_of(root: &Path, file: &Path) -> Option<PathBuf> {
    let mut dir = file.parent()?;
    loop {
        if dir.join("Cargo.toml").is_file() {
            return Some(dir.to_path_buf());
        }
        if dir == root {
            return None;
        }
        dir = dir.parent()?;
    }
}

/// Run the full audit over a workspace root.
pub fn audit_root(root: &Path) -> io::Result<AuditReport> {
    let mut files = Vec::new();
    walk_rs_files(root, &mut files)?;
    let mut report = AuditReport::default();
    let mut unsafe_crates: Vec<(PathBuf, String, usize)> = Vec::new();

    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let src = fs::read_to_string(path)?;
        report.files_scanned += 1;
        report.violations.extend(scan_source(&rel, &src));
        if has_unsafe(&src) {
            if let Some(cr) = crate_root_of(root, path) {
                if !unsafe_crates.iter().any(|(p, _, _)| *p == cr) {
                    unsafe_crates.push((cr, rel.clone(), 1));
                }
            }
        }
    }

    // R5: every crate containing unsafe code must deny
    // unsafe_op_in_unsafe_fn at its root.
    for (crate_dir, witness, _) in unsafe_crates {
        let lib = crate_dir.join("src/lib.rs");
        let main = crate_dir.join("src/main.rs");
        let crate_root_file = if lib.is_file() { lib } else { main };
        let ok = crate_root_file.is_file()
            && has_deny_unsafe_op(&fs::read_to_string(&crate_root_file)?);
        if !ok {
            let rel = crate_root_file
                .strip_prefix(root)
                .unwrap_or(&crate_root_file)
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            report.violations.push(Violation {
                rule: "deny-unsafe-op-in-unsafe-fn",
                file: rel,
                line: 1,
                message: format!(
                    "crate contains unsafe code (e.g. {witness}) but its root lacks \
                     #![deny(unsafe_op_in_unsafe_fn)]"
                ),
            });
        }
    }

    report.violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(report)
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return start.to_path_buf(),
        }
    }
}

pub fn cli_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut json_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "audit" if cmd.is_none() => cmd = Some("audit"),
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 1;
            }
            "--json" if i + 1 < args.len() => {
                json_out = Some(PathBuf::from(&args[i + 1]));
                i += 1;
            }
            other => {
                eprintln!("dgs-verify: unknown argument {other:?}");
                eprintln!("usage: dgs-verify audit [--root PATH] [--json PATH]");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if cmd != Some("audit") {
        eprintln!("usage: dgs-verify audit [--root PATH] [--json PATH]");
        return ExitCode::from(2);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root.unwrap_or_else(|| find_workspace_root(&cwd));
    let report = match audit_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dgs-verify: audit failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = json_out {
        if let Err(e) = fs::write(&path, report.to_json()) {
            eprintln!("dgs-verify: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for v in &report.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    println!(
        "dgs-verify audit: {} files scanned, {} violation(s)",
        report.files_scanned,
        report.violations.len()
    );
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_strings_and_comments() {
        let src = "let s = \"unsafe Ordering::Relaxed\"; // SAFETY: nope\nlet c = 'x';\n";
        let lines = lex_lines(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("SAFETY:"));
        assert!(lines[1].code.contains("' '"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_nested_block_comments() {
        let src = "let s = r#\"std::sync::atomic\"#; /* a /* nested */ comment */ let x = 1;\n";
        let lines = lex_lines(src);
        assert!(!lines[0].code.contains("atomic"));
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(lines[0].comment.contains("comment"));
    }

    #[test]
    fn lexer_lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // code after lifetimes survives\nlet y = 2;\n";
        let lines = lex_lines(src);
        assert!(lines[0].code.contains("{ x }"));
        assert!(lines[1].code.contains("let y = 2;"));
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let bad = "fn f() {\n    unsafe { g() }\n}\n";
        let v = scan_source("crates/x/src/lib.rs", bad);
        assert!(v.iter().any(|v| v.rule == "unsafe-needs-safety" && v.line == 2));

        let good = "fn f() {\n    // SAFETY: g has no preconditions here\n    unsafe { g() }\n}\n";
        assert!(scan_source("crates/x/src/lib.rs", good)
            .iter()
            .all(|v| v.rule != "unsafe-needs-safety"));
    }

    #[test]
    fn relaxed_without_ordering_flagged_and_seqcst_free() {
        let bad = "x.load(Ordering::Relaxed);\n";
        let v = scan_source("crates/x/src/lib.rs", bad);
        assert!(v.iter().any(|v| v.rule == "ordering-needs-justification"));

        let good = "// ORDERING: monotone counter; readers tolerate staleness\nx.load(Ordering::Relaxed);\n";
        assert!(scan_source("crates/x/src/lib.rs", good)
            .iter()
            .all(|v| v.rule != "ordering-needs-justification"));

        let seqcst = "x.load(Ordering::SeqCst);\n";
        assert!(scan_source("crates/x/src/lib.rs", seqcst).is_empty());
    }

    #[test]
    fn facade_is_exempt_from_ordering_and_atomic_rules() {
        let src = "use std::sync::atomic::AtomicU64;\nx.load(Ordering::Relaxed);\n";
        assert!(scan_source("crates/dgs-sync/src/model/engine.rs", src).is_empty());
        let v = scan_source("crates/dgs-runtime/src/thread_driver.rs", src);
        assert!(v.iter().any(|v| v.rule == "atomics-via-facade"));
    }

    #[test]
    fn thread_driver_clock_and_threads_go_through_the_facade() {
        let src = "use std::time::{Duration, Instant};\nuse dgs_sync::time::Instant;\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { std::thread::sleep(d); }\n}\n";
        let hits: Vec<usize> = scan_source("crates/dgs-runtime/src/thread_driver/task.rs", src)
            .iter()
            .filter(|v| v.rule == "clock-via-facade")
            .map(|v| v.line)
            .collect();
        assert_eq!(hits, vec![1], "the std import is a hit; the facade import and tests are not");
        // Outside the thread driver the rule does not apply.
        assert!(scan_source("crates/dgs-runtime/src/job.rs", src).is_empty());
    }

    #[test]
    fn hot_path_unwrap_flagged_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let v = scan_source("vendor/crossbeam/src/spsc.rs", src);
        let hits: Vec<usize> =
            v.iter().filter(|v| v.rule == "hot-path-no-unwrap").map(|v| v.line).collect();
        assert_eq!(hits, vec![1]);
        // Non-allowlisted files are untouched by R4.
        assert!(scan_source("crates/dgs-core/src/program.rs", src)
            .iter()
            .all(|v| v.rule != "hot-path-no-unwrap"));
    }

    #[test]
    fn json_report_shape() {
        let report = AuditReport {
            files_scanned: 3,
            violations: vec![Violation {
                rule: "unsafe-needs-safety",
                file: "a.rs".into(),
                line: 7,
                message: "msg with \"quotes\"".into(),
            }],
        };
        let j = report.to_json();
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"violation_count\": 1"));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("x.load(Ordering::Relaxed)", "Relaxed"));
        assert!(!contains_word("RelaxedFoo", "Relaxed"));
        assert!(!contains_word("unsafely", "unsafe"));
        assert!(contains_word("unsafe impl Send for X {}", "unsafe"));
    }
}
