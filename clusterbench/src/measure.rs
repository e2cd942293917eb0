//! Sim-time service metrics computed from the replicas' public
//! `NodeMetrics` commit and confirm records: f+1 confirmation times,
//! censored latency percentiles, outage, catch-up and the agreement gate.

use ladon_core::{CommitRecord, ConfirmRecord};
use ladon_types::TimeNs;
use std::collections::{BTreeMap, HashMap};

/// A block's identity in the records: `(instance, round)`.
pub type BlockKey = (u32, u64);

/// One latency sample: every tx of one confirmed block, weighted by the
/// block's `tx_count` (blocks carry only the sum of their txs' submission
/// times, so each tx is charged the block's mean).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Submit → f+1-confirm latency, seconds (sim).
    pub latency_s: f64,
    /// Transactions the sample stands for.
    pub weight: u64,
}

/// Latency distribution with right-censored mass: `censored` txs never
/// confirmed and rank above every confirmed one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Latencies {
    samples: Vec<Sample>,
    confirmed: u64,
    censored: u64,
    /// Value reported for a percentile that lands in the censored mass: a
    /// lower bound on those txs' latency, never below the largest
    /// confirmed latency.
    censored_floor_s: f64,
}

impl Latencies {
    /// Builds the distribution. `censored_floor_s` is a lower bound on the
    /// latency of the `censored` txs.
    pub fn new(mut samples: Vec<Sample>, censored: u64, censored_floor_s: f64) -> Self {
        samples.retain(|s| s.weight > 0);
        samples.sort_by(|a, b| a.latency_s.total_cmp(&b.latency_s));
        let confirmed = samples.iter().map(|s| s.weight).sum();
        let max_confirmed = samples.last().map_or(0.0, |s| s.latency_s);
        Self {
            samples,
            confirmed,
            censored,
            censored_floor_s: censored_floor_s.max(max_confirmed),
        }
    }

    /// Transactions in the sample, confirmed and censored.
    pub fn count(&self) -> u64 {
        self.confirmed + self.censored
    }

    /// Censored (never confirmed) transactions.
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// The `p`-quantile of the confirmed txs alone (nearest rank).
    pub fn confirmed_quantile(&self, p: f64) -> f64 {
        Latencies::new(self.samples.clone(), 0, 0.0).quantile(p)
    }

    /// The `p`-quantile (nearest rank over all txs). Lands on the
    /// censored floor when rank `⌈p·N⌉` exceeds the confirmed txs.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        if rank > self.confirmed {
            return self.censored_floor_s;
        }
        let mut cum = 0u64;
        for s in &self.samples {
            cum += s.weight;
            if cum >= rank {
                return s.latency_s;
            }
        }
        self.censored_floor_s
    }
}

/// Per-block confirm times of one replica, all incarnations merged (a
/// restarted replica keeps its earliest confirm of a block).
pub fn confirm_times(confirms: &[&ConfirmRecord]) -> HashMap<BlockKey, TimeNs> {
    let mut out: HashMap<BlockKey, TimeNs> = HashMap::new();
    for c in confirms {
        let t = out.entry((c.instance, c.round)).or_insert(c.time);
        *t = (*t).min(c.time);
    }
    out
}

/// Per-block commit times of one replica.
pub fn commit_times(commits: &[CommitRecord]) -> HashMap<BlockKey, TimeNs> {
    let mut out: HashMap<BlockKey, TimeNs> = HashMap::new();
    for c in commits {
        let t = out.entry((c.instance, c.round)).or_insert(c.time);
        *t = (*t).min(c.time);
    }
    out
}

/// The time each block was confirmed by `f + 1` replicas (the client's
/// view: `f + 1` matching replies).
pub fn f1_times(per_replica: &[HashMap<BlockKey, TimeNs>], f: usize) -> HashMap<BlockKey, TimeNs> {
    let mut all: HashMap<BlockKey, Vec<TimeNs>> = HashMap::new();
    for r in per_replica {
        for (&k, &t) in r {
            all.entry(k).or_default().push(t);
        }
    }
    all.into_iter()
        .filter_map(|(k, mut ts)| {
            (ts.len() > f).then(|| {
                ts.sort_unstable();
                (k, ts[f])
            })
        })
        .collect()
}

/// Longest stretch without an f+1 confirmation inside `[from, to)`,
/// counting the stretches from `from` to the first confirmation and from
/// the last one to `to`.
pub fn longest_gap(times: &[TimeNs], from: TimeNs, to: TimeNs) -> TimeNs {
    let mut inside: Vec<TimeNs> = times
        .iter()
        .copied()
        .filter(|&t| t >= from && t < to)
        .collect();
    inside.sort_unstable();
    let mut prev = from;
    let mut gap = TimeNs::ZERO;
    for t in inside.into_iter().chain(std::iter::once(to)) {
        gap = gap.max(t.saturating_sub(prev));
        prev = t;
    }
    gap
}

/// Checks that replicas agree on the block at every `sn` they share.
/// Returns the first disagreement found.
pub fn sn_agreement(per_replica: &[Vec<&ConfirmRecord>]) -> Result<u64, String> {
    let mut by_sn: BTreeMap<u64, (usize, BlockKey)> = BTreeMap::new();
    let mut shared = 0u64;
    for (r, confirms) in per_replica.iter().enumerate() {
        for c in confirms {
            let key = (c.instance, c.round);
            match by_sn.get(&c.sn) {
                None => {
                    by_sn.insert(c.sn, (r, key));
                }
                Some(&(r0, k0)) if k0 != key => {
                    return Err(format!(
                        "sn {} is block {:?} at replica {r0} but {:?} at replica {r}",
                        c.sn, k0, key
                    ));
                }
                Some(_) => shared += 1,
            }
        }
    }
    Ok(shared)
}

/// Median catch-up lag: over the `sn`s every replica confirmed inside
/// `[from, to)` (by the reference's confirm time) and over replicas, the
/// time between the first replica's confirm of the `sn` and this
/// replica's.
pub fn median_confirm_lag(
    per_replica: &[Vec<&ConfirmRecord>],
    reference: usize,
    from: TimeNs,
    to: TimeNs,
) -> f64 {
    let maps: Vec<HashMap<u64, TimeNs>> = per_replica
        .iter()
        .map(|cs| {
            let mut m = HashMap::new();
            for c in cs {
                let t = m.entry(c.sn).or_insert(c.time);
                *t = (*t).min(c.time);
            }
            m
        })
        .collect();
    let mut lags = Vec::new();
    for c in per_replica[reference]
        .iter()
        .filter(|c| c.time >= from && c.time < to)
    {
        let Some(ts) = maps
            .iter()
            .map(|m| m.get(&c.sn).copied())
            .collect::<Option<Vec<TimeNs>>>()
        else {
            continue;
        };
        let first = ts.iter().copied().min().unwrap_or(TimeNs::ZERO);
        lags.extend(ts.iter().map(|t| t.saturating_sub(first).as_secs_f64()));
    }
    median(lags)
}

/// Median and 99th percentile (nearest rank) of unweighted values.
pub fn p50_p99(mut v: Vec<f64>) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    v.sort_by(f64::total_cmp);
    let at = |p: f64| v[((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    (at(0.5), at(0.99))
}

/// Median of a nonempty list.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(latency_s: f64, weight: u64) -> Sample {
        Sample { latency_s, weight }
    }

    #[test]
    fn weighted_quantiles_without_censoring() {
        let l = Latencies::new(vec![s(3.0, 1), s(1.0, 98), s(2.0, 1)], 0, 0.0);
        assert_eq!(l.count(), 100);
        assert_eq!(l.quantile(0.5), 1.0);
        assert_eq!(l.quantile(0.98), 1.0);
        assert_eq!(l.quantile(0.99), 2.0);
        assert_eq!(l.quantile(1.0), 3.0);
    }

    #[test]
    fn censored_txs_rank_above_every_confirmed_one() {
        // 98 confirmed at 1 s, 2 never confirmed: p99 misses any limit.
        let l = Latencies::new(vec![s(1.0, 98)], 2, 0.5);
        assert_eq!(l.count(), 100);
        assert_eq!(l.censored(), 2);
        assert_eq!(l.quantile(0.5), 1.0);
        assert_eq!(l.quantile(0.98), 1.0);
        // The censored floor is raised to the largest confirmed latency.
        assert_eq!(l.quantile(0.99), 1.0);
        let l = Latencies::new(vec![s(1.0, 98)], 2, 7.5);
        assert_eq!(l.quantile(0.99), 7.5);
        // A majority censored moves the median too.
        let l = Latencies::new(vec![s(0.2, 30)], 70, 12.0);
        assert_eq!(l.quantile(0.5), 12.0);
        assert_eq!(l.quantile(0.3), 0.2);
    }

    #[test]
    fn gap_counts_both_window_edges() {
        let t = TimeNs::from_secs;
        assert_eq!(longest_gap(&[t(2), t(3)], t(1), t(10)), t(7));
        assert_eq!(longest_gap(&[t(5), t(6)], t(1), t(7)), t(4));
        assert_eq!(longest_gap(&[], t(1), t(4)), t(3));
    }

    #[test]
    fn agreement_detects_conflicting_blocks() {
        let rec = |sn, instance| ConfirmRecord {
            sn,
            instance,
            round: 1,
            rank: 0,
            tx_count: 1,
            arrival_sum_ns: 0,
            proposed_at: TimeNs::ZERO,
            time: TimeNs::ZERO,
            is_nil: false,
        };
        let (a, b, c) = (rec(0, 1), rec(0, 1), rec(0, 2));
        assert_eq!(sn_agreement(&[vec![&a], vec![&b]]), Ok(1));
        assert!(sn_agreement(&[vec![&a], vec![&c]]).is_err());
    }
}
