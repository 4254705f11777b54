//! Reference answers computed with plain std collections, independently
//! of the engine, and the checks that compare a run's output with them.
//!
//! The references parse the generated records themselves (fixed-width
//! click lines, space-separated documents) rather than calling the
//! workloads' map functions, so a bug in a UDF or in the engine shows up
//! as a mismatch instead of being reproduced on both sides.

use opa_common::{Key, Pair, Value};
use opa_core::job::JobInput;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The user id of a generated click line (`t=<10 digits> u=<8 digits> …`).
fn click_user(rec: &[u8]) -> Option<u64> {
    let digits = rec.get(15..23)?;
    if rec.get(12..15)? != b" u=" {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// The URL of a generated click line (the field after the user id).
fn click_url(rec: &[u8]) -> Option<&[u8]> {
    let tail = rec.get(24..)?;
    tail.split(|&b| b == b' ').next()
}

/// `output` in canonical order (by key, then value), for comparisons.
pub fn sorted(output: &[Pair]) -> Vec<Pair> {
    let mut out = output.to_vec();
    out.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
    out
}

/// Clicks per user.
pub fn click_counts(input: &JobInput) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for rec in &input.records {
        if let Some(user) = click_user(rec) {
            *counts.entry(user).or_insert(0) += 1;
        }
    }
    counts
}

/// Occurrences of every word trigram (words split on single spaces,
/// empty words skipped).
pub fn trigram_counts(input: &JobInput) -> HashMap<Vec<u8>, u64> {
    let mut counts = HashMap::new();
    for rec in &input.records {
        let words: Vec<&[u8]> = rec
            .split(|&b| b == b' ')
            .filter(|w| !w.is_empty())
            .collect();
        for w in words.windows(3) {
            let key = [w[0], w[1], w[2]].join(&b' ');
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    counts
}

/// The value of a count pair: the leading big-endian `u64` (click-count
/// values are exactly 8 bytes; thresholded states carry a trailing flag).
pub fn count_of(value: &Value) -> Option<u64> {
    Some(u64::from_be_bytes(value.bytes().get(..8)?.try_into().ok()?))
}

/// Click counting: exactly one pair per user, carrying the exact count.
pub fn check_click_counts(output: &[Pair], counts: &HashMap<u64, u64>) -> bool {
    if output.len() != counts.len() {
        return false;
    }
    let mut seen = HashSet::with_capacity(output.len());
    output.iter().all(|p| {
        let Ok(user) = <[u8; 8]>::try_from(p.key.bytes()) else {
            return false;
        };
        let user = u64::from_be_bytes(user);
        seen.insert(user) && counts.get(&user).copied() == count_of(&p.value)
    })
}

/// Trigram counting: the emitted key set is exactly the trigrams at or
/// above `threshold`, each once, and non-empty. Early output reports the
/// count at the moment it crossed the threshold, so each value lies in
/// `[threshold, true count]`.
pub fn check_trigrams(output: &[Pair], counts: &HashMap<Vec<u8>, u64>, threshold: u64) -> bool {
    let expected = counts.values().filter(|&&c| c >= threshold).count();
    if expected == 0 || output.len() != expected {
        return false;
    }
    let mut seen = HashSet::with_capacity(output.len());
    output.iter().all(|p| {
        let truth = counts.get(p.key.bytes()).copied().unwrap_or(0);
        let v = count_of(&p.value).unwrap_or(0);
        seen.insert(p.key.bytes()) && truth >= threshold && (threshold..=truth).contains(&v)
    })
}

/// Frequent users: the distinct emitted users are exactly those with at
/// least `threshold` clicks, and there is at least one. (DINC-hash may
/// report a user twice after an eviction; membership is what is exact.)
pub fn check_frequent_users(output: &[Pair], counts: &HashMap<u64, u64>, threshold: u64) -> bool {
    let expected: HashSet<u64> = counts
        .iter()
        .filter(|(_, &c)| c >= threshold)
        .map(|(&u, _)| u)
        .collect();
    let got: Option<HashSet<u64>> = output
        .iter()
        .map(|p| {
            <[u8; 8]>::try_from(p.key.bytes())
                .ok()
                .map(u64::from_be_bytes)
        })
        .collect();
    !expected.is_empty() && got.as_ref() == Some(&expected)
}

/// Fixed-point rank 1.0 and damping 0.85, as the PageRank workload
/// defines them.
const SCALE: u64 = 1_000_000;
const DAMPING: u64 = 850_000;
/// Adjacency cap per node (lexicographically smallest neighbors kept).
const MAX_DEGREE: usize = 32;

/// PageRank over the bipartite user↔page click graph after `rounds`
/// power-iteration rounds, as sorted `(node, node record)` pairs with the
/// record packed as `[rank u64][n u32]` plus `n` length-framed neighbors.
/// Integer fixed-point throughout, so the engine must match bit for bit.
pub fn pagerank(clicks: &JobInput, rounds: usize) -> Vec<Pair> {
    let mut adj: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for rec in &clicks.records {
        let (Some(user), Some(url)) = (click_user(rec), click_url(rec)) else {
            continue;
        };
        let ukey = format!("u!{user:08}").into_bytes();
        adj.entry(ukey.clone()).or_default().push(url.to_vec());
        adj.entry(url.to_vec()).or_default().push(ukey);
    }
    for list in adj.values_mut() {
        list.sort_unstable();
        list.dedup();
        list.truncate(MAX_DEGREE);
    }
    let mut rank: HashMap<&[u8], u64> = adj.keys().map(|k| (k.as_slice(), SCALE)).collect();
    for _ in 0..rounds {
        let mut next: HashMap<&[u8], u64> = adj
            .keys()
            .map(|k| (k.as_slice(), SCALE - DAMPING))
            .collect();
        for (node, list) in &adj {
            if list.is_empty() {
                continue;
            }
            let damped = (rank[node.as_slice()] as u128 * DAMPING as u128 / SCALE as u128) as u64;
            let share = damped / list.len() as u64;
            for n in list {
                *next
                    .get_mut(n.as_slice())
                    .expect("every neighbor is a node") += share;
            }
        }
        rank = next;
    }
    adj.iter()
        .map(|(node, list)| {
            let mut v = Vec::new();
            v.extend_from_slice(&rank[node.as_slice()].to_be_bytes());
            v.extend_from_slice(&(list.len() as u32).to_be_bytes());
            for n in list {
                v.extend_from_slice(&(n.len() as u32).to_be_bytes());
                v.extend_from_slice(n);
            }
            Pair::new(Key::from_slice(node), Value::new(v))
        })
        .collect()
}
