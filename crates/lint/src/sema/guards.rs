//! Guard live-range analysis: which lock guards are live at each token of
//! a function body.
//!
//! The model distinguishes **bound guards** (`let g = x.lock();` — the
//! acquisition is the whole statement, so the guard lives until `drop(g)`,
//! reassignment of `g`, or the close of the scope its `let` appears in)
//! from **chained temporaries** (`x.lock().send(&m)` — the guard dies at
//! the end of its statement: the next `;`, a block-opening `{` in an
//! `if`/`while` header, or the `}` closing the enclosing block). This is
//! what lets `self.table.lock().route(o)` in an `if` condition coexist
//! with `self.table.lock().install(..)` in the body without a phantom
//! self-deadlock, while `let s = sched.lock(); … sleep(..)` is correctly
//! seen as sleeping under the lock.
//!
//! Locks are recognized by *name*, via the workspace [`Symbols`] table:
//! `.lock()`/`.read()`/`.write()` with no arguments whose receiver's final
//! segment is a lock-typed field/static/param, or a one-level local alias
//! of one (`let shard_slot = &shards[idx];`). Guard-typed fn parameters
//! (`&mut MutexGuard<..>`) enter the body already live.

use std::collections::BTreeMap;
use std::ops::Range;

use super::parse::{FileSema, FnDef};
use super::symbols::Symbols;
use crate::source::{ident_at, is_ident, is_punct, SourceFile, Token, TokenKind};

/// One lock acquisition (or guard-typed parameter) with its computed live
/// token range.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Lock name: the receiver's final path segment (aliases keep the
    /// alias name — that is how the code refers to the lock).
    pub resource: String,
    /// Binding name for bound guards and guard params; `None` for
    /// temporaries.
    pub binding: Option<String>,
    /// Token index of the acquiring method name (body start for params).
    pub tok: usize,
    /// 1-based source line of the acquisition.
    pub line: u32,
    /// Live token range: `[tok, death)`.
    pub live: Range<usize>,
    /// `lock` / `read` / `write` / `param`.
    pub method: &'static str,
}

/// All acquisitions of one function body.
#[derive(Debug, Default)]
pub struct FnGuards {
    /// Acquisitions in source order.
    pub acqs: Vec<Acq>,
}

impl FnGuards {
    /// Analyze one fn of `file`.
    pub fn analyze(file: &SourceFile, sema: &FileSema, symbols: &Symbols, f: &FnDef) -> FnGuards {
        let Some(body) = f.body.clone() else { return FnGuards::default() };
        let t = &file.tokens;
        let aliases = local_lock_aliases(t, &body, symbols);
        let mut acqs: Vec<Acq> = Vec::new();

        // Guard-typed parameters are live for the whole body.
        for p in &f.params {
            if p.type_idents.iter().any(|ty| {
                matches!(ty.as_str(), "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard")
            }) {
                acqs.push(Acq {
                    resource: p.name.clone(),
                    binding: Some(p.name.clone()),
                    tok: body.start,
                    line: f.line,
                    live: body.clone(),
                    method: "param",
                });
            }
        }

        // Scope each binding was declared in, so a reassignment deep in a
        // match arm keeps the outer live-range.
        let mut decl_scope: BTreeMap<String, usize> = BTreeMap::new();
        // Indexes into `acqs` of currently-open bound guards, by binding.
        let mut open: BTreeMap<String, usize> = BTreeMap::new();

        let mut i = body.start;
        while i < body.end {
            // Close any open guard whose declaration scope ended.
            let closed: Vec<String> = open
                .iter()
                .filter(|(_, &idx)| acqs[idx].live.end <= i)
                .map(|(b, _)| b.clone())
                .collect();
            for b in closed {
                open.remove(&b);
            }
            // `drop(g)` releases a bound guard at the drop site.
            if is_ident(t, i, "drop") && is_punct(t, i + 1, '(') && is_punct(t, i + 3, ')') {
                if let Some(name) = ident_at(t, i + 2) {
                    if let Some(idx) = open.remove(name) {
                        acqs[idx].live.end = i;
                    }
                }
            }
            if let Some((resource, method)) = acquisition_at(t, i, symbols, &aliases) {
                let line = t[i].line;
                if !file.in_test_region(line) {
                    match chain_binding(t, i) {
                        Some(binding) => {
                            // Reassignment ends the previous guard here.
                            if let Some(prev) = open.remove(&binding) {
                                acqs[prev].live.end = i;
                            }
                            let scope = decl_scope
                                .get(&binding)
                                .copied()
                                .unwrap_or_else(|| sema.scopes.innermost(i));
                            decl_scope.entry(binding.clone()).or_insert(scope);
                            let death = sema.scopes.scopes[scope].close.min(body.end);
                            open.insert(binding.clone(), acqs.len());
                            acqs.push(Acq {
                                resource,
                                binding: Some(binding),
                                tok: i,
                                line,
                                live: i..death,
                                method,
                            });
                        }
                        None => {
                            let death = statement_end(t, i, body.end);
                            acqs.push(Acq {
                                resource,
                                binding: None,
                                tok: i,
                                line,
                                live: i..death,
                                method,
                            });
                        }
                    }
                }
            }
            i += 1;
        }
        FnGuards { acqs }
    }

    /// Guards live at token `i`, excluding an acquisition made exactly
    /// there.
    pub fn live_at(&self, i: usize) -> impl Iterator<Item = &Acq> {
        self.acqs.iter().filter(move |a| a.live.contains(&i) && a.tok != i)
    }

    /// Distinct resources this fn acquires directly (for one-level
    /// inlining in the caller).
    pub fn resources(&self) -> Vec<&Acq> {
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for a in &self.acqs {
            if a.method != "param" && !seen.contains(&&a.resource) {
                seen.push(&a.resource);
                out.push(a);
            }
        }
        out
    }
}

/// Detect a no-argument `recv.lock()` / `.read()` / `.write()` whose
/// receiver names a known lock; returns `(resource, method)`.
fn acquisition_at(
    t: &[Token],
    i: usize,
    symbols: &Symbols,
    aliases: &BTreeMap<String, String>,
) -> Option<(String, &'static str)> {
    let method = match ident_at(t, i)? {
        "lock" => "lock",
        "read" => "read",
        "write" => "write",
        _ => return None,
    };
    if !is_punct(t, i.wrapping_sub(1), '.') || !is_punct(t, i + 1, '(') || !is_punct(t, i + 2, ')')
    {
        return None;
    }
    let seg = final_segment(t, i.wrapping_sub(2))?;
    if symbols.is_lock_name(&seg) || aliases.contains_key(&seg) {
        Some((seg, method))
    } else {
        None
    }
}

/// The final path segment of the receiver ending at token `i` — the ident
/// itself, or the ident indexed by a trailing `[…]`.
fn final_segment(t: &[Token], i: usize) -> Option<String> {
    if let Some(id) = ident_at(t, i) {
        return Some(id.to_string());
    }
    if is_punct(t, i, ']') {
        let open = matching_back(t, i, '[', ']')?;
        return ident_at(t, open.wrapping_sub(1)).map(str::to_string);
    }
    None
}

/// Walk the receiver chain of the call at token `i` back to its head and,
/// when the chain ends the statement (`…);`), return the `let`/assignment
/// binding in front of it.
fn chain_binding(t: &[Token], i: usize) -> Option<String> {
    // The acquisition binds a guard only when the call ends the statement
    // chain: `let g = x.lock();` — anything chained after (`.len()`, `?`)
    // makes the guard a temporary.
    if !is_punct(t, i + 3, ';') {
        return None;
    }
    let mut head = i.wrapping_sub(2);
    if is_punct(t, head, ']') {
        head = matching_back(t, head, '[', ']')?.wrapping_sub(1);
    }
    while head >= 2 && is_punct(t, head - 1, '.') {
        let prev = head - 2;
        if ident_at(t, prev).is_some() {
            head = prev;
        } else if is_punct(t, prev, ']') {
            head = matching_back(t, prev, '[', ']')?.wrapping_sub(1);
        } else if is_punct(t, prev, ')') {
            // A call in the chain (`clients.get(&k).unwrap().lock()`):
            // treat the whole chain as unbound — it cannot be a plain
            // `let g = lockfield.lock();` form anyway.
            return None;
        } else {
            break;
        }
    }
    if head >= 2 && is_punct(t, head - 1, '=') && !is_punct(t, head - 2, '=') {
        if let Some(name) = ident_at(t, head - 2) {
            if name != "mut" {
                return Some(name.to_string());
            }
        }
    }
    None
}

/// Token index at which a temporary acquired at `i` dies: the `;` ending
/// the statement, a `{` opening a block from the statement header, or the
/// `}` closing the enclosing block — whichever comes first at the
/// statement's own bracket depth.
pub fn statement_end(t: &[Token], i: usize, limit: usize) -> usize {
    let (mut paren, mut brack, mut brace) = (0i32, 0i32, 0i32);
    for j in i..limit {
        match t.get(j).map(|x| &x.kind) {
            Some(TokenKind::Punct('(')) => paren += 1,
            Some(TokenKind::Punct(')')) => paren -= 1,
            Some(TokenKind::Punct('[')) => brack += 1,
            Some(TokenKind::Punct(']')) => brack -= 1,
            Some(TokenKind::Punct('{')) => {
                if paren <= 0 && brack <= 0 && brace == 0 {
                    return j;
                }
                brace += 1;
            }
            Some(TokenKind::Punct('}')) => {
                brace -= 1;
                if brace < 0 {
                    return j;
                }
            }
            Some(TokenKind::Punct(';')) if paren <= 0 && brack <= 0 && brace <= 0 => return j,
            _ => {}
        }
    }
    limit
}

/// Backwards bracket matching: the index of the `open` matching the
/// `close` at `close_idx`.
fn matching_back(t: &[Token], close_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for j in (0..=close_idx).rev() {
        match t.get(j).map(|x| &x.kind) {
            Some(TokenKind::Punct(c)) if *c == close => depth += 1,
            Some(TokenKind::Punct(c)) if *c == open => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// One-level local lock aliases: `let a = &<chain>;` where the chain
/// mentions a known lock name. Maps alias → underlying lock name.
fn local_lock_aliases(
    t: &[Token],
    body: &Range<usize>,
    symbols: &Symbols,
) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = body.start;
    while i < body.end {
        if is_ident(t, i, "let") {
            let mut j = i + 1;
            if is_ident(t, j, "mut") {
                j += 1;
            }
            if let Some(name) = ident_at(t, j) {
                if is_punct(t, j + 1, '=') && is_punct(t, j + 2, '&') {
                    let end = statement_end(t, j + 2, body.end);
                    let lock = (j + 3..end).find_map(|k| {
                        ident_at(t, k).filter(|id| symbols.is_lock_name(id)).map(str::to_string)
                    });
                    if let Some(lock) = lock {
                        out.insert(name.to_string(), lock);
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn analyze(body_src: &str) -> (SourceFile, FnGuards) {
        let src = format!(
            "struct S {{ table: Mutex<T>, stats: Mutex<U>, scene: RwLock<V> }}\n\
             fn shards_decl(shards: &[Mutex<Shard>]) {{}}\n\
             fn f() {{ {body_src} }}"
        );
        let file = SourceFile::parse("crates/server/src/x.rs".into(), &src);
        let sema = FileSema::build(&file.tokens);
        let symbols = Symbols::build(std::slice::from_ref(&file), std::slice::from_ref(&sema));
        let f = sema.fns.iter().find(|f| f.name == "f").expect("fn f").clone();
        let guards = FnGuards::analyze(&file, &sema, &symbols, &f);
        (file, guards)
    }

    use super::super::parse::FileSema;
    use super::super::symbols::Symbols;

    #[test]
    fn bound_guard_lives_to_scope_close_and_drop() {
        let (file, g) = analyze("let t = self.table.lock(); use_it(); drop(t); after();");
        assert_eq!(g.acqs.len(), 1);
        let a = &g.acqs[0];
        assert_eq!(a.resource, "table");
        assert_eq!(a.binding.as_deref(), Some("t"));
        // Dies at the drop, before `after()`.
        let after = file
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, TokenKind::Ident(i) if i == "after"))
            .expect("after token");
        assert!(a.live.end < after, "guard outlived drop(t)");
    }

    #[test]
    fn chained_temporary_dies_at_block_open() {
        // The `if` condition's temporary must not overlap the body's
        // acquisition — no phantom self-deadlock.
        let (file, g) =
            analyze("if self.table.lock().route(o).is_none() { self.table.lock().install(o); }");
        assert_eq!(g.acqs.len(), 2);
        let first = &g.acqs[0];
        let second = &g.acqs[1];
        assert!(first.binding.is_none());
        assert!(first.live.end <= second.tok, "temporary leaked into the if body");
        let _ = file;
    }

    #[test]
    fn reassignment_keeps_outer_scope() {
        let (_, g) = analyze(
            "let mut s = self.table.lock(); loop { drop(s); other(); s = self.table.lock(); } ",
        );
        assert_eq!(g.acqs.len(), 2);
        // The reacquired guard keeps the outer declaration scope: it does
        // not die at the loop-body close before the next iteration uses it.
        assert!(g.acqs[1].live.end >= g.acqs[0].live.end);
    }

    #[test]
    fn alias_of_indexed_lock_is_recognized() {
        let (_, g) = analyze(
            "let scene = self.scene.read(); let shard_slot = &shards[idx]; \
             let mut sh = shard_slot.lock();",
        );
        let resources: Vec<&str> = g.acqs.iter().map(|a| a.resource.as_str()).collect();
        assert_eq!(resources, vec!["scene", "shard_slot"]);
    }

    #[test]
    fn non_lock_receivers_are_ignored() {
        let (_, g) = analyze("let x = file.read(); let y = sock.write();");
        assert!(g.acqs.is_empty());
    }
}
