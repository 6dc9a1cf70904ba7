//! AST-lite: a structural model recovered from the token stream.
//!
//! No expression parsing — just the item structure the rules need:
//! `#[cfg(test)]` / `#[test]` regions (most rules skip test code) and
//! function spans with their enclosing `impl` target (so a rule can say
//! "inside `ShardedNode::lock_shard`").

use crate::lexer::{lex, Comment, Tok, Token};
use std::collections::HashSet;

/// A function's span in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// The `impl` target type it is defined on, if any.
    pub impl_of: Option<String>,
    /// Token index of the `fn` keyword.
    pub kw_idx: usize,
    /// Token range `[start, end)` of the body, braces included.
    pub body: (usize, usize),
}

/// A lexed file plus the recovered item structure.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path (used for rule scoping and reporting).
    pub path: String,
    /// Code tokens.
    pub tokens: Vec<Token>,
    /// Comments, in order.
    pub comments: Vec<Comment>,
    /// Token index ranges `[start, end)` that are test-only code
    /// (`#[cfg(test)]` mods and `#[test]` / `#[cfg(test)]` fns).
    pub test_ranges: Vec<(usize, usize)>,
    /// All function spans, in order of appearance.
    pub fns: Vec<FnSpan>,
    /// Lines that contain at least one code token.
    pub code_lines: HashSet<u32>,
}

impl FileModel {
    /// Lexes and models one source file.
    pub fn parse(path: &str, src: &str) -> FileModel {
        let (tokens, comments) = lex(src);
        let test_ranges = find_test_ranges(&tokens);
        let fns = find_fns(&tokens);
        let code_lines = tokens.iter().map(|t| t.line).collect();
        FileModel {
            path: path.to_owned(),
            tokens,
            comments,
            test_ranges,
            fns,
            code_lines,
        }
    }

    /// Whether token index `i` falls inside test-only code.
    pub fn is_test_code(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// The innermost function span containing token index `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| i >= f.body.0 && i < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// The body token range of function `name` (optionally qualified by its
    /// `impl` target), if defined in this file.
    pub fn fn_body(&self, impl_of: Option<&str>, name: &str) -> Option<(usize, usize)> {
        self.fns
            .iter()
            .find(|f| f.name == name && f.impl_of.as_deref() == impl_of)
            .map(|f| f.body)
    }

    /// Comment text attached to line `l`: comments that end on `l` or on
    /// the run of comment-only lines directly above `l`.
    pub fn comments_attached_to_line(&self, l: u32) -> Vec<&Comment> {
        let mut out = Vec::new();
        // Same-line trailing comment.
        for c in &self.comments {
            if c.line == l || c.end_line == l {
                out.push(c);
            }
        }
        // Walk the run of comment-only lines above.
        let mut probe = l.saturating_sub(1);
        while probe > 0 && !self.code_lines.contains(&probe) {
            let mut any = false;
            for c in &self.comments {
                if probe >= c.line && probe <= c.end_line {
                    out.push(c);
                    any = true;
                }
            }
            if !any {
                break; // blank line terminates the attached run
            }
            probe = probe.saturating_sub(1);
        }
        out
    }
}

/// Finds the matching `}` for the `{` at `open`; returns the index one past
/// it (or `tokens.len()` if unbalanced).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Attribute starting at `i` (`#` or `#!`): returns `(end_index, idents)`
/// where `idents` are the identifiers inside the brackets.
fn parse_attr(tokens: &[Token], i: usize) -> Option<(usize, Vec<String>)> {
    if !tokens[i].is_punct('#') {
        return None;
    }
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].is_punct('!') {
        j += 1;
    }
    if j >= tokens.len() || !tokens[j].is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut idents = Vec::new();
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((j + 1, idents));
            }
        } else if let Some(id) = tokens[j].ident() {
            idents.push(id.to_owned());
        }
        j += 1;
    }
    None
}

/// Marks `#[cfg(test)] mod … { … }` bodies and `#[test]` / `#[cfg(test)]`
/// function bodies as test ranges.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some((after, idents)) = parse_attr(tokens, i) {
            let is_cfg_test = idents.len() >= 2 && idents[0] == "cfg" && idents.contains(&"test".to_owned());
            let is_test_attr = idents.len() == 1 && idents[0] == "test";
            if is_cfg_test || is_test_attr {
                // Skip any further attributes / visibility to the item kw.
                let mut j = after;
                loop {
                    if let Some((next, _)) = parse_attr(tokens, j) {
                        j = next;
                        continue;
                    }
                    match tokens.get(j).and_then(Token::ident) {
                        Some("pub") => {
                            j += 1;
                            // possible pub(crate)
                            if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                                while j < tokens.len() && !tokens[j].is_punct(')') {
                                    j += 1;
                                }
                                j += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let kw = tokens.get(j).and_then(Token::ident);
                if matches!(kw, Some("mod" | "fn")) || (is_cfg_test && kw.is_some()) {
                    // Find the item's body brace (or terminating `;`).
                    let mut k = j;
                    while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';')
                    {
                        k += 1;
                    }
                    if k < tokens.len() && tokens[k].is_punct('{') {
                        ranges.push((i, matching_brace(tokens, k)));
                        i = after;
                        continue;
                    }
                }
            }
            i = after;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Recovers all function spans, annotated with their `impl` target.
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    // impl regions: (body_range, target type name)
    let mut impls: Vec<((usize, usize), String)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") {
            // Scan the header to the opening `{`; the target is the first
            // path identifier after `for` if present, else the first path
            // identifier outside generics.
            // The target is the last path segment of the implementing
            // type: after `for` in trait impls, before the `{` (or a
            // `where` clause) in inherent impls.
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut target: Option<String> = None;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                match &tokens[j].kind {
                    Tok::Punct('<') => angle += 1,
                    Tok::Punct('>') => angle -= 1,
                    Tok::Ident(id) if angle == 0 => {
                        if id == "for" {
                            target = None;
                        } else if id == "where" {
                            break;
                        } else if id != "dyn" {
                            target = Some(id.clone());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let end = matching_brace(tokens, j);
                if let Some(t) = target {
                    impls.push(((j, end), t));
                }
            }
        } else if tokens[i].is_ident("fn") {
            // `fn` as a type (`fn(...)`) has no name ident after it.
            if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                // Find the body `{` before any `;` at paren depth 0.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut body = None;
                while j < tokens.len() {
                    match tokens[j].kind {
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        Tok::Punct('{') if paren == 0 => {
                            body = Some((j, matching_brace(tokens, j)));
                            break;
                        }
                        Tok::Punct(';') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(body) = body {
                    let impl_of = impls
                        .iter()
                        .filter(|((s, e), _)| i >= *s && i < *e)
                        .min_by_key(|((s, e), _)| e - s)
                        .map(|(_, t)| t.clone());
                    fns.push(FnSpan {
                        name: name.to_owned(),
                        impl_of,
                        kw_idx: i,
                        body,
                    });
                }
            }
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        pub enum Color {
            Red,
            Green { x: u8 },
            Blue(Vec<u8>),
        }

        impl Color {
            pub fn is_warm(&self) -> bool {
                matches!(self, Color::Red)
            }
        }

        fn free_helper() -> usize { 1 }

        #[cfg(test)]
        mod tests {
            #[test]
            fn in_tests() { let _ = super::free_helper(); }
        }
    "#;

    #[test]
    fn fns_know_their_impl_target() {
        let m = FileModel::parse("x.rs", SRC);
        let warm = m.fns.iter().find(|f| f.name == "is_warm").unwrap();
        assert_eq!(warm.impl_of.as_deref(), Some("Color"));
        let free = m.fns.iter().find(|f| f.name == "free_helper").unwrap();
        assert_eq!(free.impl_of, None);
        assert!(m.fn_body(Some("Color"), "is_warm").is_some());
        assert!(m.fn_body(None, "is_warm").is_none());
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let m = FileModel::parse("x.rs", SRC);
        let in_tests = m
            .tokens
            .iter()
            .position(|t| t.is_ident("in_tests"))
            .unwrap();
        assert!(m.is_test_code(in_tests));
        let warm = m.tokens.iter().position(|t| t.is_ident("is_warm")).unwrap();
        assert!(!m.is_test_code(warm));
    }

    #[test]
    fn trait_impls_attribute_to_the_implementing_type() {
        let src = "impl Display for Wrapper { fn fmt(&self) -> X { todo() } }";
        let m = FileModel::parse("x.rs", src);
        let fmt = m.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(fmt.impl_of.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn attached_comments_walk_up_comment_only_lines() {
        let src = "// SAFETY: top\n// second line\nlet x = 1;\nlet y = 2; // trailing\n";
        let m = FileModel::parse("x.rs", src);
        let at3: Vec<_> = m
            .comments_attached_to_line(3)
            .iter()
            .map(|c| c.text.clone())
            .collect();
        assert!(at3.iter().any(|t| t.contains("SAFETY")));
        assert!(at3.iter().any(|t| t.contains("second")));
        let at4: Vec<_> = m
            .comments_attached_to_line(4)
            .iter()
            .map(|c| c.text.clone())
            .collect();
        assert!(at4.iter().any(|t| t.contains("trailing")));
        assert!(!at4.iter().any(|t| t.contains("SAFETY")));
    }
}
