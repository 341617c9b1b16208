//! Cross-crate properties of the object substrate and evaluator:
//! genericity (answers independent of the atom enumeration), rank/unrank
//! bijectivity against the induced order, and encode/decode round trips —
//! the Section 2 framework invariants.

mod common;

use common::*;
use nestdb::core::eval::Evaluator;
use nestdb::object::domain::{card, rank, unrank};
use nestdb::object::encoding::{decode_instance, decode_value, encode_instance, value_to_string};
use nestdb::object::order::induced_cmp;
use nestdb::object::Governor;
use nestdb::object::{Atom, AtomOrder, Nat, Type};
use proptest::prelude::*;
use std::cmp::Ordering;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Queries are generic: permuting the atom enumeration does not change
    /// the answer relation (Section 2's "insensitive to isomorphisms").
    #[test]
    fn tc_answers_do_not_depend_on_enumeration(
        edges in edges_strategy(5, 10),
        perm_seed in 0usize..120,
    ) {
        let (_u, order, i) = graph_instance(5, &edges);
        let q = tc_query();
        let base = Evaluator::new(&i, order.clone(), Governor::default())
            .query(&q)
            .unwrap();
        // build the perm_seed-th permutation of the 5 atoms (Lehmer code)
        let mut pool: Vec<Atom> = order.iter().collect();
        let mut seq = Vec::new();
        let mut code = perm_seed;
        for k in (1..=pool.len()).rev() {
            seq.push(pool.remove(code % k));
            code /= k;
        }
        let permuted = AtomOrder::new(seq);
        let alt = Evaluator::new(&i, permuted, Governor::default())
            .query(&q)
            .unwrap();
        prop_assert_eq!(base, alt);
    }

    /// rank is a monotone bijection w.r.t. the induced order.
    #[test]
    fn rank_is_monotone_bijection(ty in type_strategy(2)) {
        let names = ["a", "b", "c"];
        let u = nestdb::object::Universe::with_names(names);
        let order = AtomOrder::identity(&u);
        let Ok(c) = card(&ty, 3) else { return Ok(()); };
        let Some(c) = c.to_usize() else { return Ok(()); };
        if c > 512 { return Ok(()); }
        let mut prev: Option<nestdb::object::Value> = None;
        for r in 0..c {
            let v = unrank(&order, &ty, &Nat::from(r)).unwrap();
            prop_assert!(v.has_type(&ty));
            prop_assert_eq!(rank(&order, &ty, &v).unwrap(), Nat::from(r));
            if let Some(p) = prev {
                prop_assert_eq!(induced_cmp(&order, &p, &v), Ordering::Less);
            }
            prev = Some(v);
        }
    }

    /// The induced order is a strict total order on any sample of values.
    #[test]
    fn induced_order_is_total_and_transitive(
        ty in type_strategy(2),
        seed_values in prop::collection::vec(0u32..3, 3),
    ) {
        let names = ["a", "b", "c"];
        let u = nestdb::object::Universe::with_names(names);
        let order = AtomOrder::identity(&u);
        let _ = seed_values;
        let Ok(c) = card(&ty, 3) else { return Ok(()); };
        let Some(c) = c.to_usize() else { return Ok(()); };
        let sample: Vec<nestdb::object::Value> = (0..c.min(24))
            .map(|r| unrank(&order, &ty, &Nat::from(r)).unwrap())
            .collect();
        for a in &sample {
            prop_assert_eq!(induced_cmp(&order, a, a), Ordering::Equal);
            for b in &sample {
                let ab = induced_cmp(&order, a, b);
                prop_assert_eq!(ab, induced_cmp(&order, b, a).reverse());
                for cv in &sample {
                    if ab == Ordering::Less
                        && induced_cmp(&order, b, cv) == Ordering::Less
                    {
                        prop_assert_eq!(induced_cmp(&order, a, cv), Ordering::Less);
                    }
                }
            }
        }
    }

    /// Values round-trip through the standard encoding.
    #[test]
    fn value_encoding_roundtrip(ty in type_strategy(2), n in 2u32..6) {
        let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let u = nestdb::object::Universe::with_names(names.iter().map(String::as_str));
        let order = AtomOrder::identity(&u);
        proptest!(|(v in value_strategy(&ty, n))| {
            let s = value_to_string(&order, &v);
            let back = decode_value(&order, &ty, &s).unwrap();
            prop_assert_eq!(back, v);
        });
    }

    /// Instances round-trip through the standard encoding.
    #[test]
    fn instance_encoding_roundtrip(edges in edges_strategy(6, 12)) {
        let (_u, order, i) = graph_instance(6, &edges);
        if i.cardinality() == 0 { return Ok(()); }
        let enc = encode_instance(&order, &i);
        let back = decode_instance(&order, i.schema(), &enc).unwrap();
        prop_assert_eq!(back, i);
    }
}

#[test]
fn paper_ik_types_have_expected_cardinalities() {
    // |dom(U)| = n; |dom({U})| = 2^n; |dom([U,{U}])| = n·2^n;
    // |dom({[U,U]})| = 2^(n²)
    for n in 1..=4usize {
        assert_eq!(card(&Type::Atom, n).unwrap(), Nat::from(n));
        assert_eq!(card(&Type::set(Type::Atom), n).unwrap(), Nat::pow2(n));
        assert_eq!(
            card(&Type::tuple(vec![Type::Atom, Type::set(Type::Atom)]), n).unwrap(),
            Nat::from(n) * Nat::pow2(n)
        );
        assert_eq!(
            card(&Type::set(Type::tuple(vec![Type::Atom, Type::Atom])), n).unwrap(),
            Nat::pow2(n * n)
        );
    }
}
