//! Durability benchmark: WAL append throughput under both sync policies,
//! checkpoint (snapshot) latency, and recovery latency as a function of
//! how much WAL must be replayed versus decoding a folded snapshot.
//!
//! ```text
//! cargo run --release -p no-bench --bin bench_storage
//! ```
//!
//! Emits `BENCH_storage.json` in the current directory:
//!
//! ```json
//! { "benchmarks": [ { "name": "...", "items": n,
//!                     "total_ms": t, "per_item_us": u }, ... ] }
//! ```
//!
//! Honest caveats: `append_synced` is bounded by the device's fsync
//! latency, not by anything this crate does — on CI-grade virtual disks
//! expect hundreds of microseconds to milliseconds per insert, which is
//! exactly the cost `SyncPolicy::Manual` amortizes. The recovery rows are
//! the payoff of checkpointing: replaying a long WAL is linear in its
//! frame count, while opening from a folded snapshot is linear in the
//! (smaller) encoded database.

use nestdb::object::{RelationSchema, Type, Value};
use nestdb::storage::{Db, DbOptions, SyncPolicy};
use no_bench::best_of;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A unique scratch directory, removed on drop.
struct Scratch {
    path: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("nestdb_bench_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        Scratch { path }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Open a fresh database with `E[U,U]` declared.
fn fresh_db(dir: &Path, sync: SyncPolicy) -> Db {
    let mut db = Db::open(
        dir,
        DbOptions {
            sync,
            ..DbOptions::default()
        },
    )
    .expect("open fresh db");
    db.declare(RelationSchema::new("E", vec![Type::Atom, Type::Atom]))
        .expect("declare E");
    db
}

/// Insert `n` chain edges `E('k<i>', 'k<i+1>')`.
fn insert_n(db: &mut Db, n: usize) {
    for i in 0..n {
        let a = db.universe_mut().intern(&format!("k{i}"));
        let b = db.universe_mut().intern(&format!("k{}", i + 1));
        db.insert("E", vec![Value::Atom(a), Value::Atom(b)])
            .expect("insert edge");
    }
}

struct Row {
    name: String,
    items: usize,
    total_ms: f64,
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    // -- append throughput: every insert fsynced ------------------------
    {
        let n = 200;
        let scratch = Scratch::new("append_synced");
        let mut db = fresh_db(&scratch.path, SyncPolicy::Always);
        let t0 = Instant::now();
        insert_n(&mut db, n);
        rows.push(Row {
            name: "append_synced".into(),
            items: n,
            total_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }

    // -- append throughput: buffered, one fsync at the end --------------
    {
        let n = 5000;
        let scratch = Scratch::new("append_manual");
        let mut db = fresh_db(&scratch.path, SyncPolicy::Manual);
        let t0 = Instant::now();
        insert_n(&mut db, n);
        db.sync().expect("final sync");
        rows.push(Row {
            name: "append_manual".into(),
            items: n,
            total_ms: t0.elapsed().as_secs_f64() * 1e3,
        });

        // -- checkpoint latency: fold those frames into a snapshot ------
        let t0 = Instant::now();
        db.save().expect("checkpoint");
        rows.push(Row {
            name: "checkpoint".into(),
            items: n,
            total_ms: t0.elapsed().as_secs_f64() * 1e3,
        });

        // -- recovery from a folded snapshot (no WAL to replay) ---------
        drop(db);
        let (total_ms, ()) = best_of(3, || {
            let db = Db::open(&scratch.path, DbOptions::default()).expect("reopen");
            assert_eq!(db.open_stats().replayed_frames, 0);
            assert_eq!(db.instance().relation("E").len(), n);
        });
        rows.push(Row {
            name: "recover_snapshot".into(),
            items: n,
            total_ms,
        });
    }

    // -- recovery latency vs WAL length ---------------------------------
    for n in [100usize, 1000, 5000] {
        let scratch = Scratch::new(&format!("recover_wal_{n}"));
        let mut db = fresh_db(&scratch.path, SyncPolicy::Manual);
        insert_n(&mut db, n);
        db.sync().expect("sync before kill");
        drop(db); // no checkpoint: everything lives in the WAL
        let (total_ms, ()) = best_of(3, || {
            let db = Db::open(&scratch.path, DbOptions::default()).expect("reopen");
            assert_eq!(db.instance().relation("E").len(), n);
        });
        rows.push(Row {
            name: format!("recover_wal_{n}"),
            items: n,
            total_ms,
        });
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let per_item_us = r.total_ms * 1e3 / r.items.max(1) as f64;
        println!(
            "{:<18} {:>6} items   {:>10.3} ms total   {:>9.2} us/item",
            r.name, r.items, r.total_ms, per_item_us
        );
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"items\": {}, \"total_ms\": {:.3}, \"per_item_us\": {:.2} }}{}\n",
            r.name,
            r.items,
            r.total_ms,
            per_item_us,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_storage.json", &json).expect("write BENCH_storage.json");
    println!("wrote BENCH_storage.json");
}
