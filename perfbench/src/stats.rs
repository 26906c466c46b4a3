//! The benchmark's own math: percentiles, Poisson schedules, latency
//! summaries and the `slo_rps` search. Pure functions, so [`self_test`] can
//! check them before every run.

use ofscil::prelude::SeedRng;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. `p` is in `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The small slack keeps float round-off (0.999 * 1000 > 999) from
    // bumping an exact rank up by one.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank, so always a measured value).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Latency quantiles of one request kind, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Quantiles {
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

impl Quantiles {
    /// Summarises an unsorted sample; `None` when it is empty.
    pub fn of(values: &[f64]) -> Option<Quantiles> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Quantiles {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
            p999: percentile(&sorted, 99.9),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// A uniform draw in `(0, 1]` with 53 bits of resolution.
fn unit_open(rng: &mut SeedRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Due times (nanoseconds from the phase start) of a Poisson arrival process
/// at `rate` per second over `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut SeedRng) -> Vec<u64> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "a schedule needs a positive rate and span"
    );
    let horizon = seconds * 1e9;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -unit_open(rng).ln() / rate * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// Result of one fixed-rate probe of the `slo_rps` search.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub rate: f64,
    pub pass: bool,
}

/// The coarse stage of the `slo_rps` search. Starting at `start`, the rate
/// is multiplied (or divided) by `expand` until a pass and a failure
/// bracket the knee. Returns the bracket's passing end (`floor` when even
/// that fails) and every probe made, in order. At most `max_probes` probes
/// run; the highest pass reached by then is reported.
pub fn coarse_search(
    start: f64,
    floor: f64,
    expand: f64,
    max_probes: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> (f64, Vec<Probe>) {
    let mut probes = Vec::new();
    let mut run = |rate: f64, probes: &mut Vec<Probe>| {
        let pass = probe(rate);
        probes.push(Probe { rate, pass });
        pass
    };
    if run(start, &mut probes) {
        let mut lo = start;
        while probes.len() < max_probes && run(lo * expand, &mut probes) {
            lo *= expand;
        }
        (lo, probes)
    } else {
        let mut hi = start;
        loop {
            let next = hi / expand;
            if next < floor || probes.len() >= max_probes {
                return (floor, probes);
            }
            if run(next, &mut probes) {
                return (next, probes);
            }
            hi = next;
        }
    }
}

/// The fine stage of the `slo_rps` search: rungs `lo × step^j` for
/// `j = -1 ..= above`, one rung below the coarse stage's highest pass.
pub fn ladder(lo: f64, step: f64, above: i32) -> Vec<f64> {
    (-1..=above).map(|j| lo * step.powi(j)).collect()
}

/// The highest rung that passed with every rung below it passing. When
/// even the first rung failed the knee lies under the ladder, and one step
/// below it is reported.
pub fn ladder_result(rungs: &[f64], pass: &[bool], step: f64) -> f64 {
    match pass.iter().take_while(|p| **p).count() {
        0 => rungs[0] / step,
        passed => rungs[passed - 1],
    }
}

/// Checks the math above against known answers; the benchmark refuses to
/// report numbers when any check fails.
pub fn self_test() -> Result<(), String> {
    // Percentiles against exact sorted samples: 1..=1000 in shuffled order.
    let mut rng = SeedRng::new(11);
    let mut values: Vec<f64> = (1..=1000).map(f64::from).collect();
    rng.shuffle(&mut values);
    let q = Quantiles::of(&values).ok_or("empty sample")?;
    let expect = [
        (q.p50, 500.0),
        (q.p90, 900.0),
        (q.p99, 990.0),
        (q.p999, 999.0),
        (q.max, 1000.0),
    ];
    if expect.iter().any(|(got, want)| got != want) {
        return Err(format!("percentiles of 1..=1000 are wrong: {q:?}"));
    }
    if percentile(&[7.0], 90.0) != 7.0 || median(&[3.0, 1.0, 2.0]) != 2.0 {
        return Err("percentile of a tiny sample is wrong".into());
    }

    // Realized Poisson rate against the configured rate at a fixed seed:
    // 100k arrivals have a relative standard deviation of about 0.3%.
    let schedule = poisson_schedule(5000.0, 20.0, &mut SeedRng::new(3));
    let realized = schedule.len() as f64 / 20.0;
    if (realized / 5000.0 - 1.0).abs() > 0.01 {
        return Err(format!(
            "Poisson schedule realized {realized:.1}/s for 5000/s"
        ));
    }
    if schedule.windows(2).any(|w| w[1] < w[0]) {
        return Err("Poisson schedule is not monotone".into());
    }

    // The same seed gives a byte-identical stream; another seed does not.
    let bytes = |seed| -> Vec<u8> {
        poisson_schedule(1000.0, 2.0, &mut SeedRng::new(seed))
            .iter()
            .flat_map(|t| t.to_le_bytes())
            .collect()
    };
    if bytes(9) != bytes(9) || bytes(9) == bytes(10) {
        return Err("Poisson stream is not a pure function of its seed".into());
    }

    // The two stages recover a known knee from a synthetic latency model:
    // p90(rate) = 0.2 ms / (1 - rate / capacity), limit 1 ms, so the knee
    // sits at 0.8 × capacity.
    for (capacity, start) in [
        (10_000.0, 4000.0),
        (1500.0, 1000.0),
        (900.0, 1000.0),
        (52_000.0, 4000.0),
        (4375.0, 4000.0),
    ] {
        let knee = 0.8 * capacity;
        let model = |rate: f64| rate < capacity && 0.2 / (1.0 - rate / capacity) <= 1.0;
        let (lo, _) = coarse_search(start, 1.0, 1.5, 40, model);
        let rungs = ladder(lo, 1.08, 6);
        let pass: Vec<bool> = rungs.iter().map(|&r| model(r)).collect();
        let found = ladder_result(&rungs, &pass, 1.08);
        if !(found <= knee && knee <= found * 1.08 * (1.0 + 1e-9)) {
            return Err(format!(
                "slo ladder found {found:.1} for a knee at {knee:.1}: {rungs:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
