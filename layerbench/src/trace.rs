//! Spans recorded in memory around calls into each layer, and sampled
//! timers for calls too short and too frequent to wrap one by one.
//!
//! A span has a name, a start, an end and the span open around it on the
//! same thread (its parent). A layer's self time is its span's duration
//! minus the time its child spans cover. With tracing off, [`Tracer::span`]
//! only calls its closure.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The span store of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span store")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                parent,
                start: Instant::now(),
                end: None,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans()[id].end = Some(Instant::now());
        out
    }

    /// Records an already-timed span as a child of the span open on this
    /// thread.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.spans().push(Span {
            name,
            parent,
            start,
            end: Some(end),
        });
    }

    /// Self time of every closed span named `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_all();
        let spans = self.spans();
        spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name && s.end.is_some())
            .map(|(_, v)| v)
            .collect()
    }

    /// For every span named `unit`, the summed self time of its
    /// descendants named `name`.
    pub fn self_per_unit(&self, unit: &str, name: &str) -> Vec<f64> {
        let selfs = self.self_times_all();
        let spans = self.spans();
        let mut out: Vec<(usize, f64)> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == unit)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for (i, s) in spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let mut p = s.parent;
            while let Some(a) = p {
                if let Some(slot) = out.iter_mut().find(|(u, _)| *u == a) {
                    slot.1 += selfs[i];
                    break;
                }
                p = spans[a].parent;
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    fn self_times_all(&self) -> Vec<f64> {
        let spans = self.spans();
        let dur = |s: &Span| {
            s.end
                .map_or(0.0, |e| e.duration_since(s.start).as_secs_f64())
        };
        let mut child = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += dur(s);
            }
        }
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| (dur(s) - child[i]).max(0.0))
            .collect()
    }

    /// `[name, count, total self seconds]` for every span name, as a JSON
    /// array: the run's spans written out at its end.
    pub fn summary_json(&self) -> String {
        let selfs = self.self_times_all();
        let spans = self.spans();
        let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let rows: Vec<String> = names
            .iter()
            .map(|n| {
                let (count, total) = spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.name == *n)
                    .fold((0u64, 0.0), |(c, t), (_, v)| (c + 1, t + v));
                format!("[\"{n}\", {count}, {}]", crate::json_num(total))
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }
}

/// The median cost of a back-to-back clock read pair, measured once.
fn clock_cost_s() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let pairs: Vec<f64> = (0..10_001)
            .map(|_| Instant::now().elapsed().as_secs_f64())
            .collect();
        crate::median(&pairs)
    })
}

/// Times one call in every `every`, and extrapolates the total from the
/// sampled mean: wrapping a ~100 ns call in two clock reads every time
/// would measure mostly the clock.
#[derive(Debug, Clone)]
pub struct Sampler {
    every: u32,
    countdown: u32,
    calls: u64,
    samples: u64,
    sampled_s: f64,
}

impl Sampler {
    /// A sampler timing one call in `every`.
    pub fn new(every: u32) -> Sampler {
        Sampler {
            every: every.max(1),
            countdown: 1,
            calls: 0,
            samples: 0,
            sampled_s: 0.0,
        }
    }

    /// Counts a call; true when this call should be timed.
    #[inline]
    pub fn due(&mut self) -> bool {
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.every;
            true
        } else {
            false
        }
    }

    /// Adds one timed call, less the cost of reading the clock.
    #[inline]
    pub fn add(&mut self, start: Instant) {
        self.samples += 1;
        self.sampled_s += (start.elapsed().as_secs_f64() - clock_cost_s()).max(0.0);
    }

    /// Estimated total seconds over every counted call.
    pub fn estimate_s(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sampled_s / self.samples as f64 * self.calls as f64
        }
    }

    /// Folds another sampler's counts into this one.
    pub fn merge(&mut self, other: &Sampler) {
        self.calls += other.calls;
        self.samples += other.samples;
        self.sampled_s += other.sampled_s;
    }

    /// Forgets every count.
    pub fn reset(&mut self) {
        *self = Sampler::new(self.every);
    }
}
