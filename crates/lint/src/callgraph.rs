//! Conservative name-matched call graph with pq-par reachability.
//!
//! Edges are resolved by callee name against the workspace symbol
//! table:
//!
//! * `Type::name(…)` — candidates filtered to functions defined in an
//!   `impl Type` block; a type qualifier with no matching impl
//!   (workspace type without the method, or an external/std type like
//!   `Mutex::new`) draws no edge; a lowercase module-path qualifier
//!   falls back to every same-named function. `Self::` is resolved to
//!   the enclosing impl type at parse time.
//! * `.name(…)` — method form; names on the
//!   [`crate::ast::COMMON_METHODS`] stoplist draw no edge (they would
//!   connect every container in the workspace), everything else edges
//!   to every same-named workspace function.
//! * `name(…)` — free calls edge to every same-named function.
//!
//! All forms additionally refuse cross-crate edges the manifest
//! dependency graph cannot carry (see
//! [`crate::symbols::Workspace::may_call`]).
//!
//! Over-approximation is the point: a spurious edge can only ask for
//! one more justified suppression, a missed edge hides a float sum
//! whose order depends on chunk placement.
//!
//! Roots are functions whose body fans out over pq-par; everything
//! they reach is *par-reachable*. Each symbol remembers the caller
//! that first reached it, so a finding can name its fan-out.

use crate::ast::{CallSite, COMMON_METHODS};
use crate::symbols::Workspace;
use std::collections::BTreeSet;

/// Primitive type qualifiers (`u64::from(…)`): external, no edges.
const PRIMITIVE_TYPES: &[&str] = &[
    "bool", "char", "f32", "f64", "i128", "i16", "i32", "i64", "i8", "isize", "str", "u128", "u16",
    "u32", "u64", "u8", "usize",
];

/// The resolved graph plus propagated reachability.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Per-symbol callee ids.
    pub edges: Vec<Vec<usize>>,
    /// Per-symbol: reachable from a function that fans out over
    /// pq-par.
    pub par_reachable: Vec<bool>,
    /// Per-symbol provenance: the caller that first reached it.
    pub par_parent: Vec<Option<usize>>,
}

impl CallGraph {
    /// Resolve one call site to workspace symbol ids, per the edge
    /// policy in the module docs. `from_crate` is the calling file's
    /// crate: candidates in crates the caller's manifest cannot reach
    /// are dropped.
    pub fn resolve(&self, ws: &Workspace, from_crate: Option<&str>, call: &CallSite) -> Vec<usize> {
        let Some(candidates) = ws.by_name.get(&call.name) else {
            return Vec::new();
        };
        let reachable: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| ws.may_call(from_crate, ws.crate_of(c)))
            .collect();
        match &call.qualifier {
            Some(q) => {
                let filtered: Vec<usize> = reachable
                    .iter()
                    .copied()
                    .filter(|&c| ws.def(c).impl_type.as_deref() == Some(q.as_str()))
                    .collect();
                let is_type = q.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    || PRIMITIVE_TYPES.contains(&q.as_str());
                if !filtered.is_empty() {
                    filtered
                } else if is_type {
                    // A type qualifier that matched no workspace impl:
                    // either a known workspace type without this
                    // method, or an external/std type (`Mutex::new`,
                    // `u64::from`) — neither draws an edge.
                    Vec::new()
                } else {
                    // Lowercase qualifier: a module path — fall back.
                    reachable
                }
            }
            None if call.method && COMMON_METHODS.split_whitespace().any(|m| m == call.name) => {
                Vec::new()
            }
            None => reachable,
        }
    }

    /// Resolve edges and propagate par-reachability.
    pub fn build(ws: &Workspace) -> CallGraph {
        let n = ws.fns.len();
        let mut g = CallGraph {
            edges: vec![Vec::new(); n],
            par_reachable: vec![false; n],
            par_parent: vec![None; n],
        };
        for id in 0..n {
            let from_crate = ws.crate_of(id);
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for call in &ws.def(id).calls {
                for t in g.resolve(ws, from_crate, call) {
                    if t != id && seen.insert(t) {
                        g.edges[id].push(t);
                    }
                }
            }
        }
        // Plain BFS from the fan-out functions.
        let mut work: Vec<usize> = (0..n).filter(|&id| ws.def(id).has_par_call).collect();
        for &id in &work {
            g.par_reachable[id] = true;
        }
        while let Some(id) = work.pop() {
            for &callee in &g.edges[id] {
                if !g.par_reachable[callee] {
                    g.par_reachable[callee] = true;
                    g.par_parent[callee] = Some(id);
                    work.push(callee);
                }
            }
        }
        g
    }

    /// Short human description of how `id` became par-reachable.
    pub fn chain_desc(&self, ws: &Workspace, id: usize) -> String {
        let mut root = id;
        // Parents are set once, on first discovery, so the chain is
        // acyclic and shorter than the symbol count.
        while let Some(p) = self.par_parent[root] {
            root = p;
        }
        let def = ws.def(root);
        if root == id {
            format!("`{}` fans out over pq-par itself", def.name)
        } else {
            format!(
                "`{}` is reachable from the pq-par fan-out in `{}` ({}:{})",
                ws.def(id).name,
                def.name,
                ws.path_of(root),
                def.line
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| crate::engine::parse_file(rel, src).0)
                .collect(),
        )
    }

    fn reached(ws: &Workspace, g: &CallGraph, name: &str) -> Vec<bool> {
        ws.by_name[name]
            .iter()
            .map(|&i| g.par_reachable[i])
            .collect()
    }

    #[test]
    fn qualified_calls_respect_impl_types() {
        let ws = ws_of(&[(
            "crates/core/src/b.rs",
            "fn run(v: &[u32]) { pq_par::par_map(v, |x| *x); Fast::step(); }\n\
             impl Fast { fn step() {} }\n\
             impl Slow { fn step() {} }",
        )]);
        let g = CallGraph::build(&ws);
        assert_eq!(reached(&ws, &g, "step"), [true, false]);
    }

    #[test]
    fn common_method_names_draw_no_edges() {
        let ws = ws_of(&[(
            "crates/core/src/c.rs",
            "fn run(q: &mut Q) { pq_par::par_map(q, |x| *x); q.get(0); q.drain_ready(); }\n\
             impl Store { fn get(&self) {} }\n\
             impl Q { fn drain_ready(&mut self) {} }",
        )]);
        let g = CallGraph::build(&ws);
        assert_eq!(reached(&ws, &g, "get"), [false]);
        assert_eq!(reached(&ws, &g, "drain_ready"), [true]);
    }

    #[test]
    fn cross_file_propagation_and_chain() {
        let ws = ws_of(&[
            (
                "crates/bench/src/sweep.rs",
                "fn sweep(v: &[f64]) { pq_par::par_map(v, |x| *x); crate::core::consume(); }",
            ),
            (
                "crates/core/src/stats.rs",
                "pub fn consume() { record(); }\nfn record() {}",
            ),
        ]);
        let g = CallGraph::build(&ws);
        let record = ws.by_name["record"][0];
        assert!(g.par_reachable[record]);
        let desc = g.chain_desc(&ws, record);
        assert!(desc.contains("sweep"), "{desc}");
        assert!(desc.contains("crates/bench/src/sweep.rs"), "{desc}");
    }

    #[test]
    fn par_reachability() {
        let ws = ws_of(&[(
            "crates/core/src/d.rs",
            "fn sweep(cells: &[u32]) { pq_par::par_map(cells, |c| *c); reduce(); }\n\
             fn reduce() { tally(); }\n\
             fn tally() {}\n\
             fn standalone() {}",
        )]);
        let g = CallGraph::build(&ws);
        assert!(g.par_reachable[ws.by_name["sweep"][0]]);
        assert!(g.par_reachable[ws.by_name["tally"][0]]);
        assert!(!g.par_reachable[ws.by_name["standalone"][0]]);
    }

    #[test]
    fn recursion_terminates() {
        let ws = ws_of(&[(
            "crates/core/src/e.rs",
            "fn ping(v: &[u32]) { pq_par::par_map(v, |x| *x); pong(); }\nfn pong() { ping(); }",
        )]);
        let g = CallGraph::build(&ws);
        let pong = ws.by_name["pong"][0];
        assert!(g.par_reachable[pong]);
        // The provenance chain must not spin on the cycle.
        assert!(g.chain_desc(&ws, pong).contains("ping"));
    }
}
