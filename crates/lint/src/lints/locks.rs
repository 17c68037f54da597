//! lock-discipline: inside a declared lock-holding module, a `Mutex`/`RwLock` guard
//! binding that is still live at a call into *another* declared lock-holding module
//! risks lock-order inversion (the recorder seams make these cross-module calls
//! easy to add by accident).  The manifest in `lint.conf` names each lock module
//! and the identifiers that acquire its lock from outside.  An identifier that no
//! `fn` of its module's file defines would silently check nothing, so a stale or
//! misspelled manifest entry is a finding too.

use crate::config::{Config, LockModule};
use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::SourceFile;

pub const NAME: &str = "lock-discipline";

struct Guard {
    name: String,
    depth: usize,
}

pub fn check(config: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    for module in &config.lock_modules {
        let file = files.iter().find(|file| file.rel_path == module.rel_path);
        check_manifest(module, file, findings);
    }
    for file in files {
        let Some(own) = config
            .lock_modules
            .iter()
            .find(|m| m.rel_path == file.rel_path)
        else {
            continue;
        };
        let foreign: Vec<&LockModule> = config
            .lock_modules
            .iter()
            .filter(|m| m.rel_path != own.rel_path)
            .collect();
        scan_file(file, own, &foreign, findings);
    }
}

/// Report every entry point of `module` that no non-test `fn` of its file (absent:
/// none) defines.
fn check_manifest(module: &LockModule, file: Option<&SourceFile>, findings: &mut Vec<Finding>) {
    let defined: Vec<&str> = file.map_or_else(Vec::new, |file| {
        (0..file.tokens.len())
            .filter(|&idx| {
                file.tokens[idx].kind == TokenKind::Ident
                    && file.token_text(idx) == "fn"
                    && !file.is_test_token(idx)
            })
            .filter_map(|idx| file.next_code_token(idx))
            .map(|name| file.token_text(name))
            .collect()
    });
    for entry in &module.entry_points {
        if !defined.contains(&entry.as_str()) {
            findings.push(Finding {
                lint: NAME.to_string(),
                path: module.rel_path.clone(),
                line: 0,
                message: format!(
                    "lint.conf declares `{entry}` an entry point of lock module `{}`, but no `fn {entry}` is defined here: the entry checks nothing",
                    module.name
                ),
            });
        }
    }
}

fn scan_file(
    file: &SourceFile,
    own: &LockModule,
    foreign: &[&LockModule],
    findings: &mut Vec<Finding>,
) {
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut idx = 0usize;
    while idx < file.tokens.len() {
        let token = &file.tokens[idx];
        if token.kind != TokenKind::Ident && token.kind != TokenKind::Punct {
            idx += 1;
            continue;
        }
        let text = token.text(&file.text);
        match text {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            "let" if !file.is_test_token(idx) => {
                if let Some((name, end)) = guard_binding(file, idx) {
                    guards.push(Guard { name, depth });
                    idx = end;
                    continue;
                }
            }
            "drop" => {
                // `drop(NAME)` releases the guard early
                if let Some(open) = file.next_code_token(idx) {
                    if file.token_text(open) == "(" {
                        if let Some(arg) = file.next_code_token(open) {
                            let name = file.token_text(arg).to_string();
                            guards.retain(|g| g.name != name);
                        }
                    }
                }
            }
            _ if token.kind == TokenKind::Ident && !guards.is_empty() => {
                if let Some(module) = foreign
                    .iter()
                    .find(|m| m.entry_points.iter().any(|e| e == text))
                {
                    let is_call = file
                        .next_code_token(idx)
                        .is_some_and(|n| file.token_text(n) == "(");
                    if is_call && !file.is_test_token(idx) {
                        let held: Vec<&str> = guards.iter().map(|g| g.name.as_str()).collect();
                        findings.push(Finding {
                            lint: NAME.to_string(),
                            path: file.rel_path.clone(),
                            line: file.line_of(token.start),
                            message: format!(
                                "call to `{text}` (lock module `{}`) while guard(s) `{}` from `{}` are live: release before crossing modules",
                                module.name,
                                held.join("`, `"),
                                own.name
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
        idx += 1;
    }
}

/// If token `idx` (`let`) begins `let [mut] NAME = <rhs containing .lock()/.read()/.write()>;`,
/// return `(NAME, index of the terminating token)`.
fn guard_binding(file: &SourceFile, let_idx: usize) -> Option<(String, usize)> {
    let mut cursor = file.next_code_token(let_idx)?;
    if file.token_text(cursor) == "mut" {
        cursor = file.next_code_token(cursor)?;
    }
    if file.tokens[cursor].kind != TokenKind::Ident {
        return None; // destructuring patterns are not guard bindings we track
    }
    let name = file.token_text(cursor).to_string();
    let eq = file.next_code_token(cursor)?;
    if file.token_text(eq) != "=" {
        return None; // `let x: T = ...` with annotations: scan from the `=` below
    }
    // scan the rhs to the `;` at depth 0, looking for .lock( / .read( / .write(
    let mut depth = 0usize;
    let mut acquires = false;
    let mut cursor = eq;
    loop {
        cursor = file.next_code_token(cursor)?;
        let text = file.token_text(cursor);
        match text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break; // end of an expression without `;` (tail expr)
                }
                depth -= 1;
            }
            ";" if depth == 0 => break,
            // `.lock()` / `.read()` / `.write()` methods, or the poison-recovering
            // free helpers `lock(...)` / `read_lock(...)` / `write_lock(...)`
            "lock" | "read" | "write" | "read_lock" | "write_lock"
                if file.tokens[cursor].kind == TokenKind::Ident =>
            {
                let dotted = file
                    .prev_code_token(cursor)
                    .is_some_and(|p| file.token_text(p) == ".");
                let called = file
                    .next_code_token(cursor)
                    .is_some_and(|n| file.token_text(n) == "(");
                let is_helper = matches!(text, "lock" | "read_lock" | "write_lock");
                if called && (dotted || is_helper) {
                    acquires = true;
                }
            }
            _ => {}
        }
    }
    acquires.then_some((name, cursor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_entries_no_fn_defines_are_findings() {
        // `lokup` is a typo of a real entry point, `helper` is defined only in tests
        let config =
            Config::parse("lock-module: store src/store.rs lookup lokup helper\n").unwrap();
        let text = "pub fn lookup() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let files = [SourceFile::new("src/store.rs".into(), text.into())];
        let mut findings = Vec::new();
        check(&config, &files, &mut findings);
        let flagged: Vec<(&str, usize)> = findings
            .iter()
            .map(|finding| (finding.path.as_str(), finding.line))
            .collect();
        assert_eq!(flagged, [("src/store.rs", 0); 2]);
        assert!(findings[0].message.contains("`lokup`"));
        assert!(
            findings[1].message.contains("`helper`"),
            "a test fn defines no entry point"
        );

        // a declared file that is not there defines nothing
        let mut findings = Vec::new();
        check(&config, &[], &mut findings);
        assert_eq!(findings.len(), 3);
    }
}
