use qgraph::Graph;
use qsim::Counts;

/// Largest graph whose cut values [`MaxCut::new`] tabulates: `2^16`
/// one-byte entries (64 KiB; 4 KiB at the paper's 12 nodes).
const CUT_TABLE_MAX_NODES: usize = 16;

/// A MaxCut problem instance over a problem graph.
///
/// MaxCut is the paper's benchmark problem: every edge of the problem
/// graph becomes one commuting "CPHASE" (ZZ) gate in the QAOA cost layer.
/// The cost of a bit assignment is the number of edges whose endpoints get
/// different bits.
#[derive(Clone, PartialEq, Eq)]
pub struct MaxCut {
    graph: Graph,
    max_value: u64,
    /// `cuts[bits]` = the cut value of `bits`; empty when not tabulated.
    cuts: Vec<u8>,
}

impl std::fmt::Debug for MaxCut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaxCut")
            .field("graph", &self.graph)
            .field("max_value", &self.max_value)
            .field("tabulated", &!self.cuts.is_empty())
            .finish()
    }
}

impl MaxCut {
    /// Wraps a problem graph and precomputes the optimal cut. Graphs of
    /// up to 16 nodes get a table of every cut value (one byte each, 4 KiB
    /// at 12 nodes; built incrementally, `O(2^n)`), which also makes
    /// [`MaxCut::cut_value`] and [`MaxCut::mean_cut`] lookups; larger ones
    /// are searched exhaustively (`O(2^{n-1} · E)`).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 30 nodes (exhaustive search would
    /// be unreasonable); compilation-only workflows can use
    /// [`MaxCut::without_optimum`].
    pub fn new(graph: Graph) -> Self {
        assert!(
            graph.node_count() <= 30,
            "exhaustive MaxCut on {} nodes is infeasible; use without_optimum",
            graph.node_count()
        );
        if graph.node_count() <= CUT_TABLE_MAX_NODES {
            let cuts = cut_table(&graph);
            let max_value = cuts.iter().copied().max().map_or(0, u64::from);
            return MaxCut {
                graph,
                max_value,
                cuts,
            };
        }
        let max_value = brute_force_max(&graph);
        MaxCut {
            graph,
            max_value,
            cuts: Vec::new(),
        }
    }

    /// Wraps a problem graph without computing the optimum (methods that
    /// need it will panic). For compilation-only experiments on large
    /// graphs.
    pub fn without_optimum(graph: Graph) -> Self {
        MaxCut {
            graph,
            max_value: u64::MAX,
            cuts: Vec::new(),
        }
    }

    /// The problem graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of binary variables (graph nodes / logical qubits).
    pub fn num_vars(&self) -> usize {
        self.graph.node_count()
    }

    /// The cut value of assignment `bits` (bit `i` of the integer is the
    /// side of node `i`; bits past the last node are ignored).
    pub fn cut_value(&self, bits: usize) -> u64 {
        if !self.cuts.is_empty() {
            return u64::from(self.cuts[bits & (self.cuts.len() - 1)]);
        }
        edge_cut(&self.graph, bits)
    }

    /// The optimal (maximum) cut value.
    ///
    /// # Panics
    ///
    /// Panics if constructed with [`MaxCut::without_optimum`].
    pub fn max_value(&self) -> f64 {
        assert_ne!(self.max_value, u64::MAX, "optimum was not computed");
        self.max_value as f64
    }

    /// Mean cut value over measurement counts — the numerator of the
    /// approximation ratio (§II "QAOA Optimization Flow").
    ///
    /// Returns 0.0 for empty counts.
    pub fn mean_cut(&self, counts: &Counts) -> f64 {
        let total: u64 = counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = counts
            .iter()
            .map(|(&state, &n)| self.cut_value(state) as f64 * n as f64)
            .sum();
        weighted / total as f64
    }
}

/// The cut value of `bits` by walking the edges.
fn edge_cut(graph: &Graph, bits: usize) -> u64 {
    graph
        .edges()
        .filter(|e| ((bits >> e.a()) ^ (bits >> e.b())) & 1 == 1)
        .count() as u64
}

/// Every cut value of a graph with at most [`CUT_TABLE_MAX_NODES`] nodes.
/// Adding node `v` (the lowest set bit of `x`) to the side `x − v` cuts
/// its edges to the other side and uncuts those to `x − v`:
/// `cut(x) = cut(x − v) + deg(v) − 2·|N(v) ∩ (x − v)|`.
fn cut_table(graph: &Graph) -> Vec<u8> {
    let n = graph.node_count();
    debug_assert!(n <= CUT_TABLE_MAX_NODES);
    // At most 16·15/2 = 120 edges, so every cut fits a byte.
    let neighbours: Vec<usize> = (0..n)
        .map(|v| graph.neighbors(v).fold(0, |m, u| m | 1 << u))
        .collect();
    let mut cuts = vec![0u8; 1 << n];
    for x in 1..cuts.len() {
        let rest = x & (x - 1);
        let nv = neighbours[x.trailing_zeros() as usize];
        let cut = u32::from(cuts[rest]) + nv.count_ones() - 2 * (nv & rest).count_ones();
        cuts[x] = cut as u8;
    }
    cuts
}

fn brute_force_max(graph: &Graph) -> u64 {
    let n = graph.node_count();
    if n == 0 {
        return 0;
    }
    // Fix node 0's side: halves the search space by cut symmetry.
    (0..(1usize << (n - 1)))
        .map(|bits| edge_cut(graph, bits << 1))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::generators;

    #[test]
    fn k4_maxcut_is_four() {
        let problem = MaxCut::new(generators::complete(4));
        assert_eq!(problem.max_value(), 4.0);
        // The balanced assignment 0b0011 cuts 4 of the 6 edges.
        assert_eq!(problem.cut_value(0b0011), 4);
        assert_eq!(problem.cut_value(0b0000), 0);
        assert_eq!(problem.cut_value(0b1111), 0);
    }

    #[test]
    fn bipartite_graph_cuts_every_edge() {
        // Path graphs are bipartite: optimum = edge count.
        for n in [2, 5, 9] {
            let problem = MaxCut::new(generators::path(n));
            assert_eq!(problem.max_value(), (n - 1) as f64);
        }
        // Even cycles too; odd cycles lose one edge.
        assert_eq!(MaxCut::new(generators::cycle(6)).max_value(), 6.0);
        assert_eq!(MaxCut::new(generators::cycle(5)).max_value(), 4.0);
    }

    #[test]
    fn complete_graph_optimum_formula() {
        // MaxCut(K_n) = floor(n^2 / 4).
        for n in [3, 4, 5, 6, 7] {
            let problem = MaxCut::new(generators::complete(n));
            assert_eq!(problem.max_value(), ((n * n) / 4) as f64, "K_{n}");
        }
    }

    #[test]
    fn cut_symmetry() {
        let problem = MaxCut::new(generators::cycle(5));
        let full_mask = 0b11111;
        for bits in 0..32usize {
            assert_eq!(problem.cut_value(bits), problem.cut_value(bits ^ full_mask));
        }
    }

    #[test]
    fn mean_cut_over_counts() {
        let problem = MaxCut::new(generators::path(3)); // edges (0,1),(1,2)
        let counts = Counts::from([(0b010, 3), (0b000, 1)]); // cuts 2 and 0
        assert!((problem.mean_cut(&counts) - 1.5).abs() < 1e-12);
        assert_eq!(problem.mean_cut(&Counts::new()), 0.0);
    }

    #[test]
    #[should_panic]
    fn without_optimum_panics_on_max_value() {
        let problem = MaxCut::without_optimum(generators::path(3));
        let _ = problem.max_value();
    }

    #[test]
    fn cut_table_matches_edge_loop_and_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC07);
        for n in 0..=CUT_TABLE_MAX_NODES {
            for _ in 0..3 {
                let p = rng.gen_range(0.0..=1.0);
                let graph = generators::erdos_renyi(n, p, &mut rng).expect("valid p");
                let problem = MaxCut::new(graph.clone());
                assert_eq!(problem.cuts.len(), 1 << n, "n = {n} is tabulated");
                for bits in 0..1usize << n {
                    assert_eq!(problem.cut_value(bits), edge_cut(&graph, bits), "n = {n}");
                }
                // Out-of-range bits are ignored, as by the edge loop.
                assert_eq!(problem.cut_value(usize::MAX), edge_cut(&graph, usize::MAX));
                assert_eq!(problem.max_value(), brute_force_max(&graph) as f64);
            }
        }
        // The densest tabulated graph still fits a byte per cut.
        let k16 = MaxCut::new(generators::complete(CUT_TABLE_MAX_NODES));
        assert_eq!(k16.max_value(), 64.0);
        assert_eq!(k16.cut_value(0xFF), 64);
    }

    #[test]
    fn larger_graphs_keep_the_edge_loop() {
        let problem = MaxCut::new(generators::cycle(CUT_TABLE_MAX_NODES + 2));
        assert!(problem.cuts.is_empty());
        assert_eq!(problem.max_value(), (CUT_TABLE_MAX_NODES + 2) as f64);
        assert!(MaxCut::without_optimum(generators::cycle(4))
            .cuts
            .is_empty());
    }

    #[test]
    #[should_panic]
    fn oversized_graph_panics() {
        let _ = MaxCut::new(qgraph::Graph::new(31));
    }
}
