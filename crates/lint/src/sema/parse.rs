//! Item and brace-tree parsing over the lexed token stream.
//!
//! The semantic rules need three structural facts the flat token stream
//! cannot answer: *which scope am I in* (guard live-ranges end at the
//! closing brace of the scope their `let` lives in), *what functions exist
//! and what are their parameters* (to recognize lock-typed and guard-typed
//! values crossing call boundaries), and *what types declare lock fields*.
//! This module derives all three with a single forward pass plus a few
//! bounded look-aheads. It is a recognizer, not a full parser: anything it
//! does not understand is skipped, and it never panics on malformed input
//! (the property tests in `tests/prop_parser.rs` fuzz exactly that).

use std::ops::Range;

use crate::source::{ident_at, is_ident, is_punct, matching, Token, TokenKind};

/// One brace scope: the token indexes of its `{` and `}`.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Index of the parent scope in [`ScopeTree::scopes`] (the root is its
    /// own parent).
    pub parent: usize,
    /// Token index of the opening `{` (the root uses `0`).
    pub open: usize,
    /// Token index of the closing `}` (exclusive end of the token stream
    /// for the root and for unterminated scopes).
    pub close: usize,
}

/// The nesting tree of every `{ … }` in a file, with an O(1) token→scope
/// map.
#[derive(Debug, Default)]
pub struct ScopeTree {
    /// `scopes[0]` is the synthetic file-level root.
    pub scopes: Vec<Scope>,
    /// For each token index, the innermost scope containing it. The `{`
    /// belongs to the scope it opens; the `}` to the scope it closes.
    scope_of: Vec<usize>,
}

impl ScopeTree {
    /// Build the tree. Unbalanced `}` are attributed to the root;
    /// unterminated `{` close at end of input.
    pub fn build(tokens: &[Token]) -> ScopeTree {
        let mut scopes = vec![Scope { parent: 0, open: 0, close: tokens.len() }];
        let mut scope_of = Vec::with_capacity(tokens.len());
        let mut stack = vec![0usize];
        for (i, t) in tokens.iter().enumerate() {
            match t.kind {
                TokenKind::Punct('{') => {
                    let parent = *stack.last().unwrap_or(&0);
                    let id = scopes.len();
                    scopes.push(Scope { parent, open: i, close: tokens.len() });
                    stack.push(id);
                    scope_of.push(id);
                }
                TokenKind::Punct('}') => {
                    let id = if stack.len() > 1 { stack.pop().unwrap_or(0) } else { 0 };
                    if id != 0 {
                        scopes[id].close = i;
                    }
                    scope_of.push(id);
                }
                _ => scope_of.push(*stack.last().unwrap_or(&0)),
            }
        }
        ScopeTree { scopes, scope_of }
    }

    /// The innermost scope containing token `i` (root for out-of-range).
    pub fn innermost(&self, i: usize) -> usize {
        self.scope_of.get(i).copied().unwrap_or(0)
    }

    /// Token index at which the scope containing token `i` closes.
    pub fn close_of(&self, i: usize) -> usize {
        self.scopes[self.innermost(i)].close
    }

    /// True when scope `anc` is `id` or one of its ancestors.
    pub fn encloses(&self, anc: usize, mut id: usize) -> bool {
        loop {
            if id == anc {
                return true;
            }
            let p = self.scopes[id].parent;
            if p == id {
                return false;
            }
            id = p;
        }
    }
}

/// One function parameter or struct field: a name plus the identifiers
/// appearing in its type (`writer: Arc<Mutex<W>>` → `["Arc", "Mutex", "W"]`).
#[derive(Debug, Clone)]
pub struct TypedName {
    /// Binding/field name.
    pub name: String,
    /// Identifiers in the declared type, in order.
    pub type_idents: Vec<String>,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// `Self` type of the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Parameters (excluding any `self` receiver).
    pub params: Vec<TypedName>,
    /// Token range of the body, exclusive of its braces. `None` for
    /// bodiless trait methods.
    pub body: Option<Range<usize>>,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// One `struct` item with its named fields (tuple/unit structs have none).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Named fields.
    pub fields: Vec<TypedName>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
}

/// One `type Name = …;` alias.
#[derive(Debug, Clone)]
pub struct AliasDef {
    /// Alias name.
    pub name: String,
    /// Identifiers in the aliased type.
    pub target_idents: Vec<String>,
}

/// Everything the item pass extracts from one file.
#[derive(Debug, Default)]
pub struct FileSema {
    /// Brace-nesting tree.
    pub scopes: ScopeTree,
    /// All `fn` items, in source order (nested fns and closures excluded —
    /// closures are analyzed as part of their enclosing fn's body).
    pub fns: Vec<FnDef>,
    /// All `struct` items.
    pub structs: Vec<StructDef>,
    /// All `enum` names.
    pub enums: Vec<String>,
    /// All `type` aliases.
    pub aliases: Vec<AliasDef>,
    /// `static`/`const` items with the identifiers of their declared type.
    pub statics: Vec<TypedName>,
}

impl FileSema {
    /// Parse the item structure of `tokens`. Never panics: constructs the
    /// pass does not recognize are skipped token-by-token.
    pub fn build(tokens: &[Token]) -> FileSema {
        let scopes = ScopeTree::build(tokens);
        let impls = impl_blocks(tokens);
        let mut out = FileSema { scopes, ..FileSema::default() };
        let mut i = 0usize;
        while i < tokens.len() {
            match ident_at(tokens, i) {
                Some("fn") => {
                    let next = parse_fn(tokens, i, &impls, &mut out.fns);
                    i = next.max(i + 1);
                }
                Some("struct") => {
                    let next = parse_struct(tokens, i, &mut out.structs);
                    i = next.max(i + 1);
                }
                Some("enum") => {
                    if let Some(name) = ident_at(tokens, i + 1) {
                        out.enums.push(name.to_string());
                    }
                    i += 1;
                }
                Some("type") => {
                    i = parse_alias(tokens, i, &mut out.aliases).max(i + 1);
                }
                Some("static") | Some("const") => {
                    parse_static(tokens, i, &mut out.statics);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        out
    }

    /// The `fn` whose body contains token `i`, if any (innermost by body
    /// start, since nested items stay inside their parent's range).
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.body.as_ref().is_some_and(|b| b.contains(&i)))
            .max_by_key(|f| f.body.as_ref().map_or(0, |b| b.start))
    }
}

/// `(body token range, Self type)` for every `impl` block in the stream.
fn impl_blocks(t: &[Token]) -> Vec<(Range<usize>, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if is_ident(t, i, "impl") {
            // The Self type is the first path head before the body `{`,
            // restarting after `for`: `impl<T> Trait for Foo<T> { … }`.
            let mut j = i + 1;
            if is_punct(t, j, '<') {
                j = skip_generics(t, j).max(j + 1);
            }
            let mut ty = None;
            while j < t.len() && !is_punct(t, j, '{') && !is_punct(t, j, ';') {
                if is_ident(t, j, "for") {
                    ty = None; // restart: the Self type follows `for`
                } else if let Some(id) = ident_at(t, j) {
                    if ty.is_none() && id != "where" {
                        ty = Some(id.to_string());
                    }
                }
                j += 1;
            }
            if is_punct(t, j, '{') {
                if let (Some(close), Some(ty)) = (matching(t, j, '{', '}'), ty) {
                    out.push((j + 1..close, ty));
                }
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Parse one `fn` starting at the `fn` keyword; returns the index to resume
/// scanning from (just past the signature, so nested fns are still seen).
fn parse_fn(
    t: &[Token],
    fn_tok: usize,
    impls: &[(Range<usize>, String)],
    out: &mut Vec<FnDef>,
) -> usize {
    let Some(name) = ident_at(t, fn_tok + 1) else { return fn_tok + 1 };
    let mut i = fn_tok + 2;
    if is_punct(t, i, '<') {
        i = skip_generics(t, i);
    }
    if !is_punct(t, i, '(') {
        return fn_tok + 1;
    }
    let Some(close_paren) = matching(t, i, '(', ')') else { return fn_tok + 1 };
    let params = parse_typed_list(t, i + 1, close_paren);
    // Body: the first `{` after the signature, unless a `;` ends it first.
    let mut j = close_paren + 1;
    let mut body = None;
    while j < t.len() {
        if is_punct(t, j, ';') {
            break;
        }
        if is_punct(t, j, '{') {
            body = matching(t, j, '{', '}').map(|c| j + 1..c);
            break;
        }
        j += 1;
    }
    let impl_type = impls
        .iter()
        .filter(|(r, _)| r.contains(&fn_tok))
        .max_by_key(|(r, _)| r.start)
        .map(|(_, ty)| ty.clone());
    out.push(FnDef {
        name: name.to_string(),
        impl_type,
        params,
        body,
        fn_tok,
        line: t[fn_tok].line,
    });
    close_paren + 1
}

fn parse_struct(t: &[Token], kw: usize, out: &mut Vec<StructDef>) -> usize {
    let Some(name) = ident_at(t, kw + 1) else { return kw + 1 };
    let mut i = kw + 2;
    if is_punct(t, i, '<') {
        i = skip_generics(t, i);
    }
    // Skip a `where` clause up to the body/terminator.
    while i < t.len() && !is_punct(t, i, '{') && !is_punct(t, i, ';') && !is_punct(t, i, '(') {
        i += 1;
    }
    let mut fields = Vec::new();
    let mut resume = i;
    if is_punct(t, i, '{') {
        if let Some(close) = matching(t, i, '{', '}') {
            fields = parse_typed_list(t, i + 1, close);
            resume = i; // descend: nested items inside bodies are rare but legal
        }
    }
    out.push(StructDef { name: name.to_string(), fields, line: t[kw].line });
    resume
}

fn parse_alias(t: &[Token], kw: usize, out: &mut Vec<AliasDef>) -> usize {
    let Some(name) = ident_at(t, kw + 1) else { return kw + 1 };
    let mut i = kw + 2;
    if is_punct(t, i, '<') {
        i = skip_generics(t, i);
    }
    if !is_punct(t, i, '=') {
        return kw + 1;
    }
    let mut target_idents = Vec::new();
    let mut j = i + 1;
    while j < t.len() && !is_punct(t, j, ';') {
        if let Some(id) = ident_at(t, j) {
            target_idents.push(id.to_string());
        }
        j += 1;
    }
    out.push(AliasDef { name: name.to_string(), target_idents });
    j
}

fn parse_static(t: &[Token], kw: usize, out: &mut Vec<TypedName>) {
    // `static [mut] NAME : Type = …;` / `const NAME : Type = …;`
    let mut i = kw + 1;
    if is_ident(t, i, "mut") {
        i += 1;
    }
    let Some(name) = ident_at(t, i) else { return };
    if !is_punct(t, i + 1, ':') || is_punct(t, i + 2, ':') {
        return;
    }
    let mut type_idents = Vec::new();
    let mut j = i + 2;
    while j < t.len() && !is_punct(t, j, '=') && !is_punct(t, j, ';') {
        if let Some(id) = ident_at(t, j) {
            type_idents.push(id.to_string());
        }
        j += 1;
    }
    out.push(TypedName { name: name.to_string(), type_idents });
}

/// Parse `name: Type, name: Type, …` between `from..to` (a param list or a
/// struct body). Entries without a top-level `name:` head (receivers,
/// tuple patterns) are skipped; attributes and visibility are ignored.
fn parse_typed_list(t: &[Token], from: usize, to: usize) -> Vec<TypedName> {
    let mut out = Vec::new();
    let mut i = from;
    while i < to {
        // Entry: skip `#[…]` attributes and `pub(…)` visibility.
        while i < to && is_punct(t, i, '#') {
            match crate::source::matching(t, i + 1, '[', ']') {
                Some(e) => i = e + 1,
                None => return out,
            }
        }
        if is_ident(t, i, "pub") {
            i += 1;
            if is_punct(t, i, '(') {
                match matching(t, i, '(', ')') {
                    Some(e) => i = e + 1,
                    None => return out,
                }
            }
        }
        let entry_end = top_level_comma(t, i, to);
        // `name :` head (rejecting `::` paths) names this entry.
        let mut head = i;
        if is_ident(t, head, "mut") || is_ident(t, head, "ref") {
            head += 1;
        }
        if let Some(name) = ident_at(t, head) {
            if name != "self"
                && is_punct(t, head + 1, ':')
                && !is_punct(t, head + 2, ':')
                && head + 2 < entry_end
            {
                let mut type_idents = Vec::new();
                for k in head + 2..entry_end {
                    if let Some(id) = ident_at(t, k) {
                        type_idents.push(id.to_string());
                    }
                }
                out.push(TypedName { name: name.to_string(), type_idents });
            }
        }
        i = entry_end + 1;
    }
    out
}

/// Index of the next `,` at bracket depth zero in `from..to`, or `to`.
fn top_level_comma(t: &[Token], from: usize, to: usize) -> usize {
    let (mut paren, mut brack, mut brace, mut angle) = (0i32, 0i32, 0i32, 0i32);
    for i in from..to {
        match t.get(i).map(|x| &x.kind) {
            Some(TokenKind::Punct('(')) => paren += 1,
            Some(TokenKind::Punct(')')) => paren -= 1,
            Some(TokenKind::Punct('[')) => brack += 1,
            Some(TokenKind::Punct(']')) => brack -= 1,
            Some(TokenKind::Punct('{')) => brace += 1,
            Some(TokenKind::Punct('}')) => brace -= 1,
            Some(TokenKind::Punct('<')) => angle += 1,
            // `->` is an arrow, not a generic close.
            Some(TokenKind::Punct('>')) if !is_punct(t, i.wrapping_sub(1), '-') => angle -= 1,
            Some(TokenKind::Punct(',')) if paren == 0 && brack == 0 && brace == 0 && angle <= 0 => {
                return i;
            }
            _ => {}
        }
    }
    to
}

/// Skip a `<…>` generic-parameter list starting at the `<`; returns the
/// index one past the matching `>`. Bounded: gives up (returning the start)
/// if the list never closes.
fn skip_generics(t: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for i in open..t.len() {
        match t.get(i).map(|x| &x.kind) {
            Some(TokenKind::Punct('<')) => depth += 1,
            Some(TokenKind::Punct('>')) if !is_punct(t, i.wrapping_sub(1), '-') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            Some(TokenKind::Punct(';')) | Some(TokenKind::Punct('{')) => return open,
            _ => {}
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sema(src: &str) -> (Vec<Token>, FileSema) {
        let (tokens, _) = lex(src);
        let s = FileSema::build(&tokens);
        (tokens, s)
    }

    #[test]
    fn scope_tree_nests_and_maps_tokens() {
        let (tokens, s) = sema("fn f() { if x { y(); } z(); }");
        let root = 0;
        let fn_body = s.scopes.innermost(tokens.len() - 2); // `z` call region
        assert_ne!(fn_body, root);
        let if_body_tok =
            tokens.iter().position(|t| matches!(&t.kind, TokenKind::Ident(i) if i == "y")).unwrap();
        let if_body = s.scopes.innermost(if_body_tok);
        assert!(s.scopes.encloses(fn_body, if_body));
        assert!(!s.scopes.encloses(if_body, fn_body));
    }

    #[test]
    fn fn_params_and_impl_type() {
        let (_, s) = sema(
            "impl Server { fn deliver(&self, w: &Arc<Mutex<W>>, n: u32) -> bool { true } }\n\
             fn free(x: i32) {}",
        );
        assert_eq!(s.fns.len(), 2);
        let d = &s.fns[0];
        assert_eq!(d.name, "deliver");
        assert_eq!(d.impl_type.as_deref(), Some("Server"));
        assert_eq!(d.params.len(), 2);
        assert_eq!(d.params[0].name, "w");
        assert!(d.params[0].type_idents.iter().any(|t| t == "Mutex"));
        assert!(d.body.is_some());
        assert_eq!(s.fns[1].impl_type, None);
    }

    #[test]
    fn struct_fields_and_aliases() {
        let (_, s) = sema(
            "type SharedWriter = Arc<Mutex<MsgWriter<TcpStream>>>;\n\
             struct Shared { clients: Mutex<HashMap<NodeId, Entry>>, cv: Condvar, n: u32 }",
        );
        assert_eq!(s.aliases[0].name, "SharedWriter");
        assert!(s.aliases[0].target_idents.iter().any(|t| t == "Mutex"));
        let f = &s.structs[0].fields;
        assert_eq!(f.len(), 3);
        assert!(f[0].type_idents.iter().any(|t| t == "Mutex"));
        assert!(f[1].type_idents.iter().any(|t| t == "Condvar"));
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let (_, s) = sema("impl Drop for WorkerPool { fn drop(&mut self) {} }");
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("WorkerPool"));
    }

    #[test]
    fn generics_with_arrows_do_not_derail() {
        let (_, s) = sema("fn apply<F: Fn(u32) -> bool>(f: F, map: &BTreeMap<K, V>) {}");
        assert_eq!(s.fns[0].name, "apply");
        assert_eq!(s.fns[0].params.len(), 2);
    }

    #[test]
    fn unbalanced_input_does_not_panic() {
        for src in ["fn f( {", "}}}", "struct S {", "fn", "impl {", "type =;", "fn f<T("] {
            let (tokens, _) = lex(src);
            let s = FileSema::build(&tokens);
            for sc in &s.scopes.scopes {
                assert!(sc.open <= sc.close);
            }
        }
    }
}
