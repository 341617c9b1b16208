//! Instance statistics and schema fingerprints.
//!
//! Two collection tiers, both read from the instance's cached interned
//! form (see `no_object::instance`). [`Stats::of`] takes relation
//! cardinalities and the atom count (the active-domain size).
//! [`Stats::of_detailed`] adds **exact** distinct values per column —
//! the signal the join-algorithm pass uses to spot duplicate-heavy keys.
//! The first call on an instance interns every relation and counts its
//! atoms and distinct values; later calls (on every plan-cache miss) are
//! O(schema). The cache is dropped by every mutation, so stats always
//! describe the live rows; a *cached plan* may still carry estimates
//! from older stats, which can only affect algorithm choice, never
//! correctness (every algorithm computes the same join).

use no_core::ast::{Formula, Term};
use no_object::{Instance, Schema, Type};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Relation cardinalities, the active-domain size, and (when collected
/// via [`Stats::of_detailed`]) exact per-column distinct counts.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Rows per relation.
    pub rel_rows: BTreeMap<String, u64>,
    /// Number of distinct atoms in the instance (active-domain size).
    pub atoms: u64,
    /// Exact distinct values per column of each relation (empty unless
    /// collected by [`Stats::of_detailed`]).
    pub rel_distinct: BTreeMap<String, Vec<u64>>,
}

impl Stats {
    /// Collect cardinalities and the atom count. O(#relations) once the
    /// instance's interned form is cached; the first call builds it.
    pub fn of(instance: &Instance) -> Stats {
        let rel_rows = instance
            .schema()
            .relations()
            .map(|r| (r.name.clone(), instance.relation(&r.name).len() as u64))
            .collect();
        Stats {
            rel_rows,
            atoms: instance.atom_count() as u64,
            rel_distinct: BTreeMap::new(),
        }
    }

    /// Collect stats including exact per-column distinct counts, read
    /// from the instance's cached interned form (built on first use).
    pub fn of_detailed(instance: &Instance) -> Stats {
        let mut stats = Stats::of(instance);
        for r in instance.schema().relations() {
            stats
                .rel_distinct
                .insert(r.name.clone(), instance.distinct_counts(&r.name));
        }
        stats
    }

    /// Rows of a relation, when known.
    pub fn rows(&self, rel: &str) -> Option<u64> {
        self.rel_rows.get(rel).copied()
    }

    /// Exact distinct count of a relation's column (0-based), when
    /// detailed stats were collected.
    pub fn distinct(&self, rel: &str, col: usize) -> Option<u64> {
        self.rel_distinct
            .get(rel)
            .and_then(|cols| cols.get(col))
            .copied()
    }

    /// Estimated candidates a variable ranges over when it occurs in the
    /// body of `formula` as an argument of a database relation atom: the
    /// smallest such relation's cardinality (each column of `R` has at
    /// most |R| distinct values). `None` when the variable never occurs in
    /// a relation atom we have stats for.
    pub fn estimate_var(&self, formula: &Formula, var: &str) -> Option<u64> {
        let mut best: Option<u64> = None;
        collect_rel_occurrences(formula, &mut |rel, args| {
            if args.iter().any(|t| term_mentions(t, var)) {
                if let Some(n) = self.rows(rel) {
                    best = Some(best.map_or(n, |b| b.min(n)));
                }
            }
        });
        best
    }

    /// Estimated active-domain size for a type: the atom count for atom
    /// types, saturating `2^dom` growth for sets, products for tuples.
    pub fn estimate_domain(&self, ty: &Type) -> u64 {
        match ty {
            Type::Atom => self.atoms.max(1),
            Type::Set(inner) => {
                let n = self.estimate_domain(inner);
                if n >= 63 {
                    u64::MAX
                } else {
                    1u64 << n
                }
            }
            Type::Tuple(parts) => parts
                .iter()
                .map(|t| self.estimate_domain(t))
                .fold(1u64, u64::saturating_mul),
        }
    }
}

fn term_mentions(t: &Term, var: &str) -> bool {
    match t {
        Term::Var(v) => v == var,
        Term::Proj(inner, _) => term_mentions(inner, var),
        Term::Const(_) | Term::Fix(_) => false,
    }
}

/// Walk every relation atom in a formula (including under quantifiers,
/// negation, and fixpoint bodies) and hand it to `f`.
fn collect_rel_occurrences(formula: &Formula, f: &mut impl FnMut(&str, &[Term])) {
    match formula {
        Formula::Rel(name, args) => f(name, args),
        Formula::Eq(..) | Formula::In(..) | Formula::Subset(..) => {}
        Formula::Not(inner) => collect_rel_occurrences(inner, f),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                collect_rel_occurrences(p, f);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_rel_occurrences(a, f);
            collect_rel_occurrences(b, f);
        }
        Formula::Exists(_, _, inner) | Formula::Forall(_, _, inner) => {
            collect_rel_occurrences(inner, f)
        }
        Formula::FixApp(fix, args) => {
            collect_rel_occurrences(&fix.body, f);
            f(&fix.rel, args);
        }
    }
}

/// A stable fingerprint of a schema: relation names with their column
/// types, hashed. Part of every plan-cache key — a plan lowered against
/// one schema must never be replayed against another.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h = DefaultHasher::new();
    for rel in schema.relations() {
        rel.name.hash(&mut h);
        for ty in &rel.column_types {
            ty.to_string().hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{Atom, RelationSchema, Universe, Value};

    fn tiny() -> Instance {
        let schema = Schema::from_relations([
            RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
            RelationSchema::new("E", vec![Type::Atom]),
        ]);
        let mut i = Instance::empty(schema);
        let _u = Universe::with_names(["a", "b", "c"]);
        for (x, y) in [(0u32, 1u32), (1, 2), (2, 0)] {
            i.insert("G", vec![Value::Atom(Atom(x)), Value::Atom(Atom(y))]);
        }
        i.insert("E", vec![Value::Atom(Atom(0))]);
        i
    }

    #[test]
    fn stats_count_rows_and_atoms() {
        let i = tiny();
        let s = Stats::of(&i);
        assert_eq!(s.rows("G"), Some(3));
        assert_eq!(s.rows("E"), Some(1));
        assert_eq!(s.atoms, 3);
        assert_eq!(s.estimate_domain(&Type::Atom), 3);
        assert_eq!(s.estimate_domain(&Type::set(Type::Atom)), 8);
        assert_eq!(s.distinct("G", 0), None, "cheap stats carry no distincts");
    }

    #[test]
    fn detailed_stats_count_distincts_exactly() {
        let i = tiny();
        let s = Stats::of_detailed(&i);
        // G = {(a,b),(b,c),(c,a)}: both columns hold 3 distinct atoms.
        assert_eq!(s.distinct("G", 0), Some(3));
        assert_eq!(s.distinct("G", 1), Some(3));
        assert_eq!(s.distinct("E", 0), Some(1));
        assert_eq!(s.distinct("G", 2), None, "out-of-range column");
        assert_eq!(s.distinct("H", 0), None, "unknown relation");
    }

    #[test]
    fn var_estimates_take_the_smallest_relation() {
        let i = tiny();
        let s = Stats::of(&i);
        let f = Formula::and([
            Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
            Formula::Rel("E".into(), vec![Term::var("x")]),
        ]);
        assert_eq!(s.estimate_var(&f, "x"), Some(1), "E is smaller than G");
        assert_eq!(s.estimate_var(&f, "y"), Some(3));
        assert_eq!(s.estimate_var(&f, "z"), None);
    }

    #[test]
    fn fingerprints_separate_schemas() {
        let a = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let b = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom])]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&b));
        assert_eq!(schema_fingerprint(&a), schema_fingerprint(&a.clone()));
    }
}
