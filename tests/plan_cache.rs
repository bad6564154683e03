//! Cache-differential wall for the persistent plan store.
//!
//! The contract under test: a plan cache may make staging *faster*,
//! never *different*. Three families of checks enforce it end to end
//! through `autograph::runtime::plan_cache::compile_cached_with`:
//!
//! - **corruption wall** — an artifact damaged anywhere (byte flips
//!   across header, payload, and checksum trailer; truncation at every
//!   boundary; a well-framed artifact whose payload is garbage) must
//!   fall back to cold staging with bitwise-identical results and bump
//!   the `plan_cache_corrupt` counter, never error or panic;
//! - **invalidation matrix** — editing the source, changing the staging
//!   flags (function name), or bumping the version tag must each miss;
//!   the untouched configuration must keep hitting, and a warm hit run
//!   through either execution mode must match the cold result;
//! - **concurrency** — two sessions warming the same empty directory
//!   must both succeed and leave exactly one artifact and no temp
//!   files behind.

use autograph::runtime::plan_cache::compile_cached_with;
use autograph::runtime::CompiledFunction;
use autograph::ExecMode;
use autograph_planstore::{self as planstore, PlanStore};
use autograph_tensor::Tensor;
use std::path::PathBuf;

const SRC: &str = "\
def f(x):
    y = tf.constant(0.0)
    while y < x:
        y = y + 1.5
    return y * 2.0
";

const PROBES: [f32; 3] = [0.0, 2.2, 7.0];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agplan-wall-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compile through the store and fingerprint the function: the f32 bit
/// patterns of every output for every probe input.
fn compile_and_fingerprint(
    src: &str,
    name: &str,
    store: Option<&PlanStore>,
    tag: &str,
) -> (bool, Vec<u32>) {
    let art = compile_cached_with(src, name, &["x"], store, tag).expect("compile");
    let mut func = art.func;
    (art.from_cache, fingerprint(&mut func))
}

/// The f32 bit patterns of every output of `func` for every probe input.
fn fingerprint(func: &mut CompiledFunction) -> Vec<u32> {
    let mut bits = Vec::new();
    for v in PROBES {
        let out = func.call(&[Tensor::scalar_f32(v)]).expect("call");
        for t in out {
            bits.extend(t.to_f32_vec().iter().map(|x| x.to_bits()));
        }
    }
    bits
}

/// The single `.agpc` artifact in a store directory.
fn artifact_path(store: &PlanStore) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "agpc"))
        .collect();
    assert_eq!(found.len(), 1, "expected exactly one artifact: {found:?}");
    found.pop().expect("one artifact")
}

#[test]
fn corruption_wall_falls_back_bitwise_identically() {
    let dir = tmp_dir("corrupt");
    let store = PlanStore::open(&dir).expect("open store");
    let tag = "wall-corrupt-v1";

    let (from_cache, reference) = compile_and_fingerprint(SRC, "f", Some(&store), tag);
    assert!(!from_cache, "fresh store reported a hit");
    let path = artifact_path(&store);
    let orig = std::fs::read(&path).expect("read artifact");
    assert!(orig.len() > 26, "artifact too small to cover every region");

    // every byte of the 22-byte header and 4-byte trailer, plus a
    // stride through the payload, so each framing field and the
    // checksum itself get damaged at least once
    let mut flip_at: Vec<usize> = (0..22.min(orig.len())).collect();
    flip_at.extend((22..orig.len()).step_by(1 + orig.len() / 64));
    flip_at.extend(orig.len() - 4..orig.len());
    flip_at.dedup();

    let corrupt_before = planstore::stats().corrupt;
    let mut cases = 0u64;
    for &i in &flip_at {
        let mut bad = orig.clone();
        bad[i] ^= 0xa5;
        std::fs::write(&path, &bad).expect("write corrupted artifact");
        let (from_cache, bits) = compile_and_fingerprint(SRC, "f", Some(&store), tag);
        assert!(!from_cache, "byte flip at {i} was served as a cache hit");
        assert_eq!(bits, reference, "results diverged after byte flip at {i}");
        cases += 1;
    }

    // truncation at every framing boundary and a stride in between
    let mut cuts: Vec<usize> = vec![
        0,
        1,
        3,
        4,
        5,
        6,
        13,
        14,
        21,
        22,
        orig.len() - 4,
        orig.len() - 1,
    ];
    cuts.extend((22..orig.len()).step_by(1 + orig.len() / 16));
    cuts.retain(|&c| c < orig.len());
    cuts.sort_unstable();
    cuts.dedup();
    for &cut in &cuts {
        std::fs::write(&path, &orig[..cut]).expect("write truncated artifact");
        let (from_cache, bits) = compile_and_fingerprint(SRC, "f", Some(&store), tag);
        assert!(
            !from_cache,
            "truncation to {cut} bytes was served as a cache hit"
        );
        assert_eq!(
            bits, reference,
            "results diverged after truncation to {cut}"
        );
        cases += 1;
    }

    // a perfectly framed artifact (valid magic, key, length, checksum)
    // whose payload is garbage: the store layer accepts it, the decode
    // layer must reject it and stage cold
    let key = u64::from_str_radix(
        path.file_stem()
            .and_then(|s| s.to_str())
            .expect("artifact file stem"),
        16,
    )
    .expect("artifact name is the hex key");
    store
        .save(key, b"this is not a compiled plan")
        .expect("save garbage payload");
    let (from_cache, bits) = compile_and_fingerprint(SRC, "f", Some(&store), tag);
    assert!(!from_cache, "garbage payload was served as a cache hit");
    assert_eq!(bits, reference, "results diverged after garbage payload");
    cases += 1;

    // every case above was counted as corruption (the cold fallback
    // rewrites a valid artifact each time, so hits/misses also moved —
    // but corrupt must have moved once per damaged load)
    let corrupt_after = planstore::stats().corrupt;
    assert!(
        corrupt_after - corrupt_before >= cases,
        "corrupt counter moved {} for {cases} corruption cases",
        corrupt_after - corrupt_before
    );

    // and after the last fallback the store healed itself: next load hits
    let (from_cache, bits) = compile_and_fingerprint(SRC, "f", Some(&store), tag);
    assert!(from_cache, "store did not heal after cold fallback");
    assert_eq!(bits, reference);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalidation_matrix() {
    let dir = tmp_dir("invalidate");
    let store = PlanStore::open(&dir).expect("open store");
    let tag = "wall-inv-v1";

    // two functions with identical bodies: same source axis, different
    // flags axis (the staged function name is part of the flags)
    let two = format!("{SRC}\ndef g(x):\n    y = tf.constant(0.0)\n    while y < x:\n        y = y + 1.5\n    return y * 2.0\n");

    // cold, then hot
    let (c, cold_bits) = compile_and_fingerprint(&two, "f", Some(&store), tag);
    assert!(!c);
    let (h, warm_bits) = compile_and_fingerprint(&two, "f", Some(&store), tag);
    assert!(h, "unchanged configuration must hit");
    assert_eq!(cold_bits, warm_bits);

    // source edit → miss (then its own warm hit)
    let edited = two.replace("y + 1.5", "y + 1.25");
    assert_ne!(edited, two);
    let (c, _) = compile_and_fingerprint(&edited, "f", Some(&store), tag);
    assert!(!c, "edited source must miss");
    let (h, _) = compile_and_fingerprint(&edited, "f", Some(&store), tag);
    assert!(h);

    // flags change (different staged function) → miss
    let (c, g_cold) = compile_and_fingerprint(&two, "g", Some(&store), tag);
    assert!(!c, "different function name must miss");
    let (h, g_warm) = compile_and_fingerprint(&two, "g", Some(&store), tag);
    assert!(h);
    assert_eq!(g_cold, g_warm);

    // version tag bump → miss
    let (c, _) = compile_and_fingerprint(&two, "f", Some(&store), "wall-inv-v2");
    assert!(!c, "bumped version tag must miss");

    // the untouched original configuration still hits
    let (h, bits) = compile_and_fingerprint(&two, "f", Some(&store), tag);
    assert!(h, "untouched configuration stopped hitting");
    assert_eq!(bits, warm_bits);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The execution mode is not a cache-key axis: a warm-hit function
/// switched to the interpreter reproduces the cold VM result bitwise.
#[test]
fn warm_hit_in_interp_mode_matches_cold_vm_bitwise() {
    let dir = tmp_dir("mode");
    let store = PlanStore::open(&dir).expect("open store");
    let tag = "wall-mode-v1";

    let (c, cold_vm_bits) = compile_and_fingerprint(SRC, "f", Some(&store), tag);
    assert!(!c, "fresh store reported a hit");
    let art = compile_cached_with(SRC, "f", &["x"], Some(&store), tag).expect("compile");
    assert!(art.from_cache, "unchanged configuration must hit");
    let mut func = art.func;
    func.set_exec_mode(ExecMode::Interp);
    assert_eq!(fingerprint(&mut func), cold_vm_bits);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sessions_warm_the_same_empty_dir() {
    let dir = tmp_dir("race");
    std::fs::create_dir_all(&dir).expect("create dir");
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let dir = dir.clone();
        let barrier = std::sync::Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let store = PlanStore::open(&dir).expect("open store");
            barrier.wait();
            compile_and_fingerprint(SRC, "f", Some(&store), "wall-race-v1")
        }));
    }
    let results: Vec<(bool, Vec<u32>)> = handles
        .into_iter()
        .map(|h| h.join().expect("thread panicked"))
        .collect();
    assert_eq!(
        results[0].1, results[1].1,
        "concurrent sessions produced different results"
    );

    // one surviving artifact, no temp droppings
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    let artifacts = entries
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "agpc"))
        .count();
    let temps = entries
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .count();
    assert_eq!(artifacts, 1, "expected one artifact, saw {entries:?}");
    assert_eq!(temps, 0, "temp files survived: {entries:?}");

    // and the survivor is valid: a third session warms from it
    let store = PlanStore::open(&dir).expect("open store");
    let (hit, bits) = compile_and_fingerprint(SRC, "f", Some(&store), "wall-race-v1");
    assert!(hit, "surviving artifact did not load");
    assert_eq!(bits, results[0].1);

    let _ = std::fs::remove_dir_all(&dir);
}
