//! `#[derive(Serialize)]` for the offline serde shim.
//!
//! Implemented directly on `proc_macro` token streams (no syn/quote — the
//! container cannot fetch them). Supports the one shape the workspace
//! derives on: non-generic structs with named fields.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the shim `serde::Serialize` (see `shims/serde`) for a struct with
/// named fields.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Skip attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
    loop {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let TokenTree::Group(g) = &tokens[i] {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }
    match &tokens[i] {
        TokenTree::Ident(id) if id.to_string() == "struct" => {}
        other => panic!("derive(Serialize) supports named-field structs, got `{other}`"),
    }
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, got {other}"),
    };
    i += 1;
    let body = tokens[i..]
        .iter()
        .find_map(|t| match t {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Some(g.stream()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("derive(Serialize) needs a braced struct body for {name}"));

    let pushes: String = named_fields(body)
        .iter()
        .map(|f| {
            format!(
                "__fields.push((\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})));"
            )
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ \
         let mut __fields: Vec<(String, ::serde::Value)> = Vec::new(); {pushes} \
         ::serde::Value::Object(__fields) }} }}"
    )
    .parse()
    .expect("generated impl parses")
}

/// Field names of a named-field struct body, in declaration order.
///
/// Walks the token stream splitting on top-level commas; angle-bracket depth
/// is tracked so commas inside generic types (`Vec<(u32, f64)>`) don't split.
fn named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut angle_depth = 0i32;
    let mut expecting_name = true;
    let mut seen_colon = false;
    let mut iter = body.into_iter().peekable();
    while let Some(tok) = iter.next() {
        match &tok {
            TokenTree::Punct(p) => match p.as_char() {
                '#' if expecting_name => {
                    // Field attribute: consume the bracket group.
                    iter.next();
                }
                '<' if seen_colon => angle_depth += 1,
                '>' if seen_colon => angle_depth -= 1,
                ':' if !seen_colon && angle_depth == 0 => seen_colon = true,
                ',' if angle_depth == 0 => {
                    expecting_name = true;
                    seen_colon = false;
                }
                _ => {}
            },
            TokenTree::Ident(id) if expecting_name => {
                let s = id.to_string();
                if s == "pub" {
                    // Visibility: possibly followed by `(crate)` etc.
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            iter.next();
                        }
                    }
                } else {
                    fields.push(s);
                    expecting_name = false;
                }
            }
            _ => {}
        }
    }
    fields
}
