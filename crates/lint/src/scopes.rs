//! Test-scope tracking: which tokens live inside `#[cfg(test)]` /
//! `#[test]` items.
//!
//! Rules D4, D6 and D8–D10 skip test code: a test-only struct, fold or
//! env read is not run state. The tracker walks the token stream once,
//! pairing test attributes with the brace block of the item they
//! decorate:
//!
//! * `#[cfg(test)] mod tests { ... }` — the whole module body;
//! * `#[test] fn case() { ... }` — the function body;
//! * `#[cfg_attr(test, ...)]`-style attributes are treated as test-only
//!   when they mention `test` without `not` (conservative: over-marking a
//!   span as test can only *hide* a finding in code that is already
//!   test-gated under some cfg, never invent one).
//!
//! An attribute followed by a `;` before any `{` (e.g. `#[cfg(test)] use
//! x;`) decorates a non-block item and is dropped.

use crate::lexer::{Tok, Token};

/// For each token, whether it sits inside a test-gated item.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    // Brace stack: true entries are roots of test-gated blocks.
    let mut stack: Vec<bool> = Vec::new();
    let mut test_depth = 0usize;
    let mut pending_test = false;
    // Paren/bracket depth between a pending attribute and its item body,
    // so `fn f(x: [u8; 2])`'s brackets don't confuse the `{` search.
    let mut shield = 0usize;

    let mut i = 0usize;
    while i < tokens.len() {
        let in_test = test_depth > 0;
        mask[i] = in_test;
        match &tokens[i].kind {
            Tok::Punct('#') => {
                // `#[...]` or `#![...]`: scan the attribute, then decide.
                let mut j = i + 1;
                if matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Punct('!'))) {
                    j += 1; // inner attribute: never marks an item as test
                }
                if matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Punct('['))) {
                    let inner =
                        !matches!(tokens.get(i + 1).map(|t| &t.kind), Some(Tok::Punct('[')));
                    let (end, is_test) = scan_attribute(tokens, j);
                    for m in mask.iter_mut().take(end.min(tokens.len())).skip(i) {
                        *m = in_test;
                    }
                    if !inner && is_test {
                        pending_test = true;
                        shield = 0;
                    }
                    i = end;
                    continue;
                }
            }
            Tok::Punct('(') | Tok::Punct('[') if pending_test => shield += 1,
            Tok::Punct(')') | Tok::Punct(']') if pending_test => shield = shield.saturating_sub(1),
            Tok::Punct(';') if pending_test && shield == 0 => pending_test = false,
            Tok::Punct('{') => {
                let root = pending_test && shield == 0;
                pending_test = false;
                stack.push(root);
                if root {
                    test_depth += 1;
                    mask[i] = true;
                }
                if test_depth > 0 {
                    mask[i] = true;
                }
            }
            Tok::Punct('}') => {
                if let Some(root) = stack.pop() {
                    if root {
                        test_depth = test_depth.saturating_sub(1);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    mask
}

/// Scan `[ ... ]` starting at the opening bracket index. Returns the index
/// just past the closing bracket and whether the attribute test-gates its
/// item.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].kind {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            Tok::Ident(s) => idents.push(s),
            _ => {}
        }
        j += 1;
    }
    let is_test = match idents.as_slice() {
        ["test"] => true,
        [first, rest @ ..] if *first == "cfg" || *first == "cfg_attr" => {
            rest.contains(&"test") && !rest.contains(&"not")
        }
        _ => false,
    };
    (j, is_test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn mask_for(src: &str) -> (Vec<Token>, Vec<bool>) {
        let toks = lex(src).tokens;
        let mask = test_mask(&toks);
        (toks, mask)
    }

    fn ident_in_test(src: &str, name: &str) -> Vec<bool> {
        let (toks, mask) = mask_for(src);
        toks.iter()
            .zip(&mask)
            .filter(|(t, _)| matches!(&t.kind, Tok::Ident(s) if s == name))
            .map(|(_, &m)| m)
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn lib() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }";
        assert_eq!(ident_in_test(src, "unwrap"), vec![false, true]);
    }

    #[test]
    fn test_fn_is_masked() {
        let src = "#[test]\nfn case() { x.unwrap(); }\nfn lib() { y.unwrap(); }";
        assert_eq!(ident_in_test(src, "unwrap"), vec![true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }";
        assert_eq!(ident_in_test(src, "unwrap"), vec![false]);
    }

    #[test]
    fn attribute_on_use_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() { x.unwrap(); }";
        assert_eq!(ident_in_test(src, "unwrap"), vec![false]);
    }

    #[test]
    fn signature_brackets_do_not_confuse_the_body_search() {
        let src = "#[test]\nfn t(a: [u8; 2], f: fn(u8) -> u8) { x.unwrap(); }";
        assert_eq!(ident_in_test(src, "unwrap"), vec![true]);
    }

    #[test]
    fn nested_blocks_stay_masked_and_close_correctly() {
        let src =
            "#[cfg(test)]\nmod t { fn a() { if x { y.unwrap(); } } }\nfn lib() { z.unwrap(); }";
        assert_eq!(ident_in_test(src, "unwrap"), vec![true, false]);
    }

    #[test]
    fn inner_attribute_is_ignored() {
        let src = "#![cfg(feature = \"x\")]\nfn lib() { x.unwrap(); }";
        assert_eq!(ident_in_test(src, "unwrap"), vec![false]);
    }
}
