//! Degree and cardinality constraints (paper Tables 1 and 2).

use precis_graph::Path;
use precis_storage::RelationId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Outcome of checking a candidate path against a degree constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The path qualifies.
    Admit,
    /// The path does not qualify, but later (lower-priority) candidates
    /// still might — skip this path and its expansion, keep traversing.
    Reject,
    /// The path does not qualify and, because candidates are consumed in
    /// decreasing weight order, no later candidate can — stop the traversal
    /// (the paper's "exit while").
    RejectTerminal,
}

impl Verdict {
    fn worst(self, other: Verdict) -> Verdict {
        use Verdict::*;
        match (self, other) {
            (RejectTerminal, _) | (_, RejectTerminal) => RejectTerminal,
            (Reject, _) | (_, Reject) => Reject,
            _ => Admit,
        }
    }
}

/// A degree constraint `d(·)` bounds which (transitive) projection paths —
/// and hence which relations and attributes — appear in the result schema
/// (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub enum DegreeConstraint {
    /// `t ≤ r`: keep up to `r` top-weighted projections.
    TopProjections(usize),
    /// `w_t ≥ w₀`: keep top-weighted projections with weight at least `w₀`.
    /// The paper highlights this form as the one most immune to schema
    /// restructuring.
    MinWeight(f64),
    /// `length(p_t) ≤ l₀`: keep projections whose path has at most `l₀`
    /// edges (join edges plus the terminal projection edge).
    MaxPathLength(usize),
    /// Conjunction of constraints.
    All(Vec<DegreeConstraint>),
}

impl DegreeConstraint {
    /// Would `P_d ∪ {path}` still satisfy the constraint, given that
    /// `accepted` projection paths are already in `P_d`?
    ///
    /// Join paths are checked with the same rule the paper applies in step
    /// 2.2 of the Result Schema algorithm: a prospective path counts against
    /// the projection budget because any projection derived from it would be
    /// the `accepted + 1`-th.
    pub fn check(&self, accepted: usize, path: &Path) -> Verdict {
        match self {
            DegreeConstraint::TopProjections(r) => {
                if accepted < *r {
                    Verdict::Admit
                } else {
                    // The queue is weight-ordered, so every later projection
                    // would also exceed the budget.
                    Verdict::RejectTerminal
                }
            }
            DegreeConstraint::MinWeight(w0) => {
                if path.weight() >= *w0 - 1e-12 {
                    Verdict::Admit
                } else {
                    // Later candidates weigh no more than this one.
                    Verdict::RejectTerminal
                }
            }
            DegreeConstraint::MaxPathLength(l0) => {
                if path.len() <= *l0 {
                    Verdict::Admit
                } else {
                    // Length is not monotone in pop order, so a violation is
                    // local: prune this path (its extensions only grow) but
                    // keep traversing. Faithful generalization of the paper's
                    // exit rule — see DESIGN.md.
                    Verdict::Reject
                }
            }
            DegreeConstraint::All(cs) => cs
                .iter()
                .map(|c| c.check(accepted, path))
                .fold(Verdict::Admit, Verdict::worst),
        }
    }

    /// Append a bit-exact fingerprint of the constraint to `out`: the key
    /// the schema memo identifies a degree by. Floats are written as their
    /// bits, so 0.9 and 0.9000000001 never collide.
    pub fn write_key(&self, out: &mut String) {
        match self {
            DegreeConstraint::TopProjections(r) => {
                let _ = write!(out, "top:{r}");
            }
            DegreeConstraint::MinWeight(w) => {
                let _ = write!(out, "mw:{:x}", w.to_bits());
            }
            DegreeConstraint::MaxPathLength(l) => {
                let _ = write!(out, "len:{l}");
            }
            DegreeConstraint::All(parts) => {
                out.push_str("all(");
                for p in parts {
                    p.write_key(out);
                    out.push(',');
                }
                out.push(')');
            }
        }
    }
}

/// A cardinality constraint `c(·)` bounds how many tuples the result
/// database holds (Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CardinalityConstraint {
    /// `card(D′) ≤ c₀`: at most `c₀` tuples in the whole result database.
    MaxTotalTuples(usize),
    /// `card(R′) ≤ c₀`: at most `c₀` tuples per result relation.
    MaxTuplesPerRelation(usize),
    /// Conjunction ("a combination of those is also possible").
    All(Vec<CardinalityConstraint>),
    /// No bound (retrieve everything reachable).
    Unbounded,
}

impl CardinalityConstraint {
    /// How many more tuples may be added to `rel` given the current
    /// per-relation and total counts.
    fn allowance(&self, rel_count: usize, total_count: usize) -> usize {
        match self {
            CardinalityConstraint::MaxTotalTuples(c) => c.saturating_sub(total_count),
            CardinalityConstraint::MaxTuplesPerRelation(c) => c.saturating_sub(rel_count),
            CardinalityConstraint::All(cs) => cs
                .iter()
                .map(|c| c.allowance(rel_count, total_count))
                .min()
                .unwrap_or(usize::MAX),
            CardinalityConstraint::Unbounded => usize::MAX,
        }
    }
}

/// Mutable accounting of a cardinality constraint during result-database
/// generation.
#[derive(Debug, Clone)]
pub struct CardinalityBudget {
    constraint: CardinalityConstraint,
    per_relation: HashMap<RelationId, usize>,
    total: usize,
}

impl CardinalityBudget {
    pub fn new(constraint: CardinalityConstraint) -> Self {
        CardinalityBudget {
            constraint,
            per_relation: HashMap::new(),
            total: 0,
        }
    }

    /// Tuples that may still be added to `rel`.
    pub fn allowance(&self, rel: RelationId) -> usize {
        let rel_count = self.per_relation.get(&rel).copied().unwrap_or(0);
        self.constraint.allowance(rel_count, self.total)
    }

    /// Record `n` tuples added to `rel`.
    pub fn charge(&mut self, rel: RelationId, n: usize) {
        *self.per_relation.entry(rel).or_insert(0) += n;
        self.total += n;
    }

    /// Tuples recorded so far across all relations (`card(D′)`).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Tuples recorded for one relation.
    pub fn count(&self, rel: RelationId) -> usize {
        self.per_relation.get(&rel).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precis_graph::SchemaGraph;
    use precis_storage::{DataType, DatabaseSchema, ForeignKey, RelationSchema};

    fn graph() -> SchemaGraph {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("A")
                .attr_not_null("id", DataType::Int)
                .attr("x", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("B")
                .attr_not_null("id", DataType::Int)
                .attr("a", DataType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key(ForeignKey::new("B", "a", "A", "id"))
            .unwrap();
        SchemaGraph::from_foreign_keys(s, 0.8, 0.4, 0.6).unwrap()
    }

    fn some_paths(g: &SchemaGraph) -> (Path, Path) {
        let a = g.schema().relation_id("A").unwrap();
        let b = g.schema().relation_id("B").unwrap();
        let short = Path::seed(a)
            .extend_projection(g, g.projections_of(a)[0])
            .unwrap(); // weight .6, len 1
        let ab = g.find_join(a, b).unwrap();
        let long = Path::seed(a)
            .extend_join(g, ab)
            .unwrap()
            .extend_projection(g, g.projections_of(b)[0])
            .unwrap(); // weight .4*.6=.24, len 2
        (short, long)
    }

    #[test]
    fn top_projections_is_terminal_on_violation() {
        let g = graph();
        let (short, _) = some_paths(&g);
        let d = DegreeConstraint::TopProjections(2);
        assert_eq!(d.check(0, &short), Verdict::Admit);
        assert_eq!(d.check(1, &short), Verdict::Admit);
        assert_eq!(d.check(2, &short), Verdict::RejectTerminal);
    }

    #[test]
    fn min_weight_is_terminal_on_violation() {
        let g = graph();
        let (short, long) = some_paths(&g);
        let d = DegreeConstraint::MinWeight(0.5);
        assert_eq!(d.check(0, &short), Verdict::Admit);
        assert_eq!(d.check(0, &long), Verdict::RejectTerminal);
        // Boundary inclusion: w == w0 admits.
        let d = DegreeConstraint::MinWeight(0.6);
        assert_eq!(d.check(0, &short), Verdict::Admit);
    }

    #[test]
    fn max_path_length_rejects_locally() {
        let g = graph();
        let (short, long) = some_paths(&g);
        let d = DegreeConstraint::MaxPathLength(1);
        assert_eq!(d.check(0, &short), Verdict::Admit);
        assert_eq!(d.check(0, &long), Verdict::Reject);
    }

    #[test]
    fn conjunction_takes_worst_verdict() {
        let g = graph();
        let (short, long) = some_paths(&g);
        let d = DegreeConstraint::All(vec![
            DegreeConstraint::MaxPathLength(1),
            DegreeConstraint::TopProjections(10),
        ]);
        assert_eq!(d.check(0, &short), Verdict::Admit);
        assert_eq!(d.check(0, &long), Verdict::Reject);
        let d = DegreeConstraint::All(vec![
            DegreeConstraint::MaxPathLength(1),
            DegreeConstraint::MinWeight(0.9),
        ]);
        assert_eq!(d.check(0, &long), Verdict::RejectTerminal);
    }

    #[test]
    fn budget_tracks_per_relation_and_total() {
        let r0 = RelationId(0);
        let r1 = RelationId(1);
        let mut b = CardinalityBudget::new(CardinalityConstraint::All(vec![
            CardinalityConstraint::MaxTuplesPerRelation(3),
            CardinalityConstraint::MaxTotalTuples(5),
        ]));
        assert_eq!(b.allowance(r0), 3);
        b.charge(r0, 3);
        assert_eq!(b.allowance(r0), 0);
        assert_eq!(b.allowance(r1), 2, "total cap binds");
        b.charge(r1, 2);
        assert_eq!(b.allowance(r1), 0);
        assert_eq!(b.total(), 5);
        assert_eq!(b.count(r0), 3);
        assert_eq!(b.count(RelationId(9)), 0);
    }

    #[test]
    fn unbounded_budget_never_exhausts() {
        let b = CardinalityBudget::new(CardinalityConstraint::Unbounded);
        assert_eq!(b.allowance(RelationId(0)), usize::MAX);
    }
}
