//! A lightweight recursive-descent structural parser over the
//! [`crate::lexer`] token stream.
//!
//! This is deliberately **not** a full Rust grammar: the semantic
//! rules (`float-flow`, `env-name`, `name-registry`) need exactly
//! four structural facts per file — where functions begin and end
//! (and which `impl` they belong to), where calls and `.sum()`
//! accumulations sit inside them, whether a body fans out over
//! pq-par, and which constant string sets the file declares.
//! Everything else (expressions, patterns, generics) is skipped by
//! token-bracket matching, so the parser is total: any input produces
//! *some* AST, and a half-edited file still lints.

use crate::lexer::{Tok, TokKind};

/// Method names (whitespace-separated) too common to draw conservative call-graph edges from
/// an unqualified `.name(…)` call — they would connect every container
/// in the workspace to every other. Workspace functions with these
/// names participate in the graph only through qualified
/// (`Type::name`) calls.
pub const COMMON_METHODS: &str = "\
    abs all and_then any as_mut as_ref as_str binary_search borrow borrow_mut ceil chain chunks \
    clear clone clone_from cmp collect contains contains_key count drain ends_with enumerate eq \
    err expect extend filter find first flat_map floor fmt fold from get get_mut hash insert \
    into into_iter is_empty iter iter_mut join last len lock map max min ne new next ok parse \
    partial_cmp pop pop_front position push push_back read remove replace retain rev round sort \
    sort_by sort_by_key split starts_with sum take to_owned to_string to_vec trim unwrap \
    unwrap_or unwrap_or_default unwrap_or_else windows write zip";

/// Keywords that can precede `(` without being a call.
const STMT_KEYWORDS: &str = "\
    if else match while for loop return break continue fn let mut move in as ref use mod pub \
    where impl dyn struct enum trait type const static unsafe await";

/// Integer element types: a `.sum::<u64>()` commutes, so chunk
/// placement cannot change it.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// `Foo` in `Foo::name(…)` — the token two places left of the
    /// name across a `::`.
    pub qualifier: Option<String>,
    /// `.name(…)` receiver-method form.
    pub method: bool,
}

/// One `.sum()` accumulation site whose element type is not pinned to
/// an integer by a turbofish.
#[derive(Clone, Debug)]
pub struct SumSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One function definition (free or inside an `impl`).
#[derive(Clone, Debug, Default)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` block's type name, when any.
    pub impl_type: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Call expressions in the body.
    pub calls: Vec<CallSite>,
    /// `.sum()` sites in the body.
    pub sums: Vec<SumSite>,
    /// Body fans out over `pq_par` (`par_map`/`par_map_indexed`/
    /// `try_par_map`).
    pub has_par_call: bool,
    has_body: bool,
}

/// A `const NAME: … = &[ "…", … ];` string-set declaration — how the
/// registry rules read `KNOWN_VARS`, `METRIC_NAMES` and `SPAN_NAMES`
/// straight out of the source being linted.
#[derive(Clone, Debug)]
pub struct ConstStrSet {
    /// Constant name.
    pub name: String,
    /// The string literals, unquoted.
    pub values: Vec<String>,
}

/// Everything the semantic rules need to know about one file.
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    /// Function definitions with bodies, in source order.
    pub fns: Vec<FnDef>,
    /// Constant string-set declarations.
    pub const_sets: Vec<ConstStrSet>,
}

/// What a `{` opens.
#[derive(Clone, Debug)]
enum ScopeKind {
    Plain,
    Fn(usize),
    Impl(Option<String>),
}

/// Pending item announced by a keyword, resolved at the next `{` (or
/// dropped at `;`).
#[derive(Clone, Debug)]
enum Pending {
    Fn(usize),
    Impl(Option<String>),
}

fn is_stmt_keyword(s: &str) -> bool {
    STMT_KEYWORDS.split_whitespace().any(|k| k == s)
}

/// Skip an optional `::<…>` turbofish starting at `i`; returns the
/// index after it (and the joined contents) or `(i, None)`.
pub(crate) fn skip_turbofish(toks: &[Tok], i: usize) -> (usize, Option<String>) {
    if i + 2 < toks.len()
        && toks[i].text == ":"
        && toks[i + 1].text == ":"
        && toks[i + 2].text == "<"
    {
        let mut depth = 0usize;
        let mut j = i + 2;
        let mut body = String::new();
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j + 1, Some(body));
                    }
                }
                t => {
                    body.push_str(t);
                }
            }
            j += 1;
        }
        (j, Some(body))
    } else {
        (i, None)
    }
}

/// Parse one file's token stream into a [`FileAst`].
pub fn parse(toks: &[Tok]) -> FileAst {
    let mut ast = FileAst::default();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending: Option<Pending> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    scopes.push(match pending.take() {
                        Some(Pending::Fn(fi)) => {
                            ast.fns[fi].has_body = true;
                            ScopeKind::Fn(fi)
                        }
                        Some(Pending::Impl(ty)) => ScopeKind::Impl(ty),
                        None => ScopeKind::Plain,
                    });
                }
                "}" => {
                    scopes.pop();
                }
                // A bodyless fn decl (trait method).
                ";" => pending = None,
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        match t.text.as_str() {
            "impl" if pending.is_none() => {
                pending = Some(Pending::Impl(impl_type_name(toks, i + 1)));
                i += 1;
                continue;
            }
            "fn" => {
                if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    let impl_type = scopes.iter().rev().find_map(|s| match s {
                        ScopeKind::Impl(ty) => Some(ty.clone()),
                        _ => None,
                    });
                    ast.fns.push(FnDef {
                        name: name_tok.text.clone(),
                        impl_type: impl_type.flatten(),
                        line: t.line,
                        ..FnDef::default()
                    });
                    pending = Some(Pending::Fn(ast.fns.len() - 1));
                    i += 2;
                    continue;
                }
            }
            "const" if pending.is_none() => {
                if let Some((set, skip)) = parse_const_str_set(toks, i) {
                    ast.const_sets.push(set);
                    i += skip;
                    continue;
                }
            }
            _ => {}
        }

        // Body-level facts: only inside a function, never while a
        // signature or impl header is still pending.
        let fn_idx = scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Fn(fi) => Some(*fi),
            _ => None,
        });
        if let (Some(fi), None) = (fn_idx, &pending) {
            scan_body_token(toks, i, &mut ast.fns[fi]);
        }
        i += 1;
    }
    ast.fns.retain(|f| f.has_body);
    ast
}

/// The type name an `impl` header introduces: `impl Foo`,
/// `impl<T> Foo<T>`, `impl Trait for Foo`.
fn impl_type_name(toks: &[Tok], mut i: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut first_ident: Option<String> = None;
    let mut after_for = false;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" | ";" if angle == 0 => break,
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => {
                after_for = true;
                first_ident = None;
            }
            _ => {
                if t.kind == TokKind::Ident && angle == 0 && first_ident.is_none() {
                    first_ident = Some(t.text.clone());
                    if after_for {
                        return first_ident;
                    }
                }
            }
        }
        i += 1;
    }
    first_ident
}

/// `const NAME: … = &[ "…", … ];` — a declared string set.
fn parse_const_str_set(toks: &[Tok], i: usize) -> Option<(ConstStrSet, usize)> {
    let name_tok = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)?;
    let mut j = i + 2;
    let mut values = Vec::new();
    let mut saw_bracket = false;
    while j < toks.len() && toks[j].text != ";" {
        match toks[j].kind {
            TokKind::Punct if toks[j].text == "[" => saw_bracket = true,
            TokKind::Str if saw_bracket => {
                values.push(toks[j].text.trim_matches('"').to_string());
            }
            _ => {}
        }
        j += 1;
    }
    (saw_bracket && !values.is_empty()).then(|| {
        (
            ConstStrSet {
                name: name_tok.text.clone(),
                values,
            },
            j - i,
        )
    })
}

/// Record call/sum/fan-out facts for the identifier at `i`.
fn scan_body_token(toks: &[Tok], i: usize, f: &mut FnDef) {
    let t = &toks[i];
    if is_stmt_keyword(&t.text) || toks.get(i + 1).is_some_and(|n| n.text == "!") {
        return;
    }
    let is_method = i > 0 && toks[i - 1].text == ".";
    let qualifier = (i >= 3
        && toks[i - 1].text == ":"
        && toks[i - 2].text == ":"
        && toks[i - 3].kind == TokKind::Ident)
        .then(|| toks[i - 3].text.clone())
        // `Self::helper(…)` resolves against the enclosing impl type.
        .map(|q| match (q.as_str(), &f.impl_type) {
            ("Self", Some(ty)) => ty.clone(),
            _ => q,
        });

    // Callable position: name(…) possibly through a turbofish.
    let (after_tf, turbofish) = skip_turbofish(toks, i + 1);
    if toks.get(after_tf).is_none_or(|n| n.text != "(") {
        return;
    }

    // `.sum()` — order-sensitivity candidate unless the turbofish
    // pins an integer element type (integer addition commutes).
    if is_method && t.text == "sum" {
        let int_tf = turbofish.is_some_and(|tf| INT_TYPES.contains(&tf.as_str()));
        if !int_tf {
            f.sums.push(SumSite {
                line: t.line,
                col: t.col,
            });
        }
        return;
    }

    if matches!(
        t.text.as_str(),
        "par_map" | "par_map_indexed" | "try_par_map"
    ) {
        f.has_par_call = true;
    }

    // Call-graph edge candidates: skip bare uppercase constructors
    // (`Some(…)`, `ObjectId(…)`) — qualified calls keep their
    // qualifier for precise resolution.
    let upper_start = t
        .text
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_uppercase());
    if upper_start && qualifier.is_none() {
        return;
    }
    f.calls.push(CallSite {
        name: t.text.clone(),
        qualifier,
        method: is_method,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileAst {
        let (toks, _) = lex(src);
        parse(&toks)
    }

    #[test]
    fn fns_and_impls() {
        let ast = parse_src(
            "impl<E> Queue<E> { fn pop(&mut self) -> Option<E> { None } }\n\
             fn free() {}\n\
             impl Trait for Link { fn push(&mut self) {} }",
        );
        let names: Vec<(String, Option<String>)> = ast
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            [
                ("pop".to_string(), Some("Queue".to_string())),
                ("free".to_string(), None),
                ("push".to_string(), Some("Link".to_string())),
            ]
        );
    }

    #[test]
    fn integer_turbofish_sums_are_exempt() {
        let ast = parse_src(
            "fn f(v: &[f64], u: &[u64]) -> f64 { \
             let a: u64 = u.iter().sum::<u64>(); \
             v.iter().sum() }",
        );
        assert_eq!(ast.fns[0].sums.len(), 1, "{:?}", ast.fns[0].sums);
        assert_eq!(ast.fns[0].sums[0].line, 1);
    }

    #[test]
    fn struct_literal_after_for_does_not_poison_scopes() {
        // The `for` of `impl Trait for Foo` names the impl's subject
        // type; it must not open a scope of its own.
        let ast = parse_src(
            "impl Iterator for Gen { fn next(&mut self) -> Option<u32> { step(); None } }\n\
             fn after() { tail(); }",
        );
        assert_eq!(ast.fns[0].impl_type.as_deref(), Some("Gen"));
        assert_eq!(ast.fns[0].calls.len(), 1);
        assert_eq!(ast.fns[1].impl_type, None);
        assert_eq!(ast.fns[1].calls[0].name, "tail");
    }

    #[test]
    fn const_str_sets() {
        let ast = parse_src(
            "pub const KNOWN_VARS: &[&str] = &[\"PQ_SEED\", \"PQ_JOBS\"];\n\
             const NOT_STRINGS: &[u32] = &[1, 2];",
        );
        assert_eq!(ast.const_sets.len(), 1);
        assert_eq!(ast.const_sets[0].name, "KNOWN_VARS");
        assert_eq!(ast.const_sets[0].values, ["PQ_SEED", "PQ_JOBS"]);
    }

    #[test]
    fn qualified_and_method_calls() {
        let ast = parse_src(
            "fn f(q: &mut Q) { Website::generate(7); q.schedule(now, ev); helper(); Some(3); }",
        );
        let calls: Vec<(String, Option<String>, bool)> = ast.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.qualifier.clone(), c.method))
            .collect();
        assert_eq!(
            calls,
            [
                ("generate".to_string(), Some("Website".to_string()), false),
                ("schedule".to_string(), None, true),
                ("helper".to_string(), None, false),
            ]
        );
    }

    #[test]
    fn bodyless_trait_decls_are_dropped() {
        let ast = parse_src("trait T { fn decl(&self); fn given(&self) { self.decl() } }");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "given");
    }

    #[test]
    fn parser_is_total_on_half_edited_source() {
        let ast = parse_src("fn broken( { for x in { let y = ");
        // No panic; whatever parsed is fine.
        let _ = ast.fns.len();
    }
}
