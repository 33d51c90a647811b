//! Open-loop request generation with lateness accounting.
//!
//! Each request has a due time on a fixed schedule. The client sends it at
//! that time, or as soon as the previous response on its connection has
//! arrived if that is later, and its latency runs from the *due* time. A
//! stalled response therefore raises the latency of every request queued
//! behind it, which a closed loop would hide.

use std::time::{Duration, Instant};

/// Time source of a generator, so the accounting can run on a fake clock.
pub trait Clock {
    /// Time since the step's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t`.
    fn sleep_until(&mut self, t: Duration);
}

/// The wall clock, relative to the instant the step starts.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            let left = t - now;
            // Sleep coarsely, then yield through the last stretch: sleeping
            // all the way would add wake-up jitter to the measured latency,
            // and spinning would take the core from the server under test.
            if left > Duration::from_micros(150) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One request's timeline, relative to the step's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index of the request in the step's schedule.
    pub index: usize,
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its response had fully arrived.
    pub done: Duration,
    /// Whether the response was correct.
    pub ok: bool,
}

impl Sample {
    /// Latency counted from the due time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e6
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// What one client did in one step.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests sent, in schedule order.
    pub samples: Vec<Sample>,
    /// Scheduled requests never sent because the step ended with the
    /// generator more than the allowed lag behind.
    pub unsent: usize,
}

/// Sends every request of `schedule` (`(index, due)` pairs in due order)
/// through `send`, which returns whether the response was correct.
///
/// Requests due at or after `end` are not part of the step. Once `end` has
/// passed, a request already more than `max_lag` late is not sent but
/// counted as unsent, so an overloaded step ends near its planned length.
pub fn drive<C, F>(
    clock: &mut C,
    schedule: impl IntoIterator<Item = (usize, Duration)>,
    end: Duration,
    max_lag: Duration,
    mut send: F,
) -> Outcome
where
    C: Clock,
    F: FnMut(usize) -> bool,
{
    let mut out = Outcome::default();
    for (index, due) in schedule {
        if due >= end {
            break;
        }
        let now = clock.now();
        if now > due + max_lag && now >= end {
            out.unsent += 1;
            continue;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let ok = send(index);
        let done = clock.now();
        out.samples.push(Sample {
            index,
            due,
            sent,
            done,
            ok,
        });
    }
    out
}

/// The schedule of client `client` of `clients` at `rate` requests per
/// second: global request `i` is due at `i / rate` and belongs to client
/// `i % clients`.
pub fn schedule(
    rate: f64,
    client: usize,
    clients: usize,
) -> impl Iterator<Item = (usize, Duration)> {
    (client..)
        .step_by(clients)
        .map(move |i| (i, Duration::from_secs_f64(i as f64 / rate)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A fake clock that moves only when the generator sleeps or the fake
    /// server (which holds the other handle) spends service time.
    struct FakeClock(Rc<Cell<Duration>>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&mut self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Runs `schedule` against a fake server taking `service(i)` per
    /// request.
    fn run(
        schedule: impl IntoIterator<Item = (usize, Duration)>,
        end: Duration,
        max_lag: Duration,
        service: impl Fn(usize) -> Duration,
    ) -> Outcome {
        let time = Rc::new(Cell::new(Duration::ZERO));
        let mut clock = FakeClock(Rc::clone(&time));
        drive(&mut clock, schedule, end, max_lag, |i| {
            time.set(time.get() + service(i));
            true
        })
    }

    /// Requests every 2 ms, each served in 1 ms, except that request 3
    /// stalls for 10 ms when `stall` is set.
    fn latencies(stall: bool) -> Vec<f64> {
        let schedule = (0..10).map(|i| (i, ms(2 * i as u64)));
        run(schedule, ms(100), ms(1_000), |i| {
            if stall && i == 3 {
                ms(10)
            } else {
                ms(1)
            }
        })
        .samples
        .iter()
        .map(Sample::latency_us)
        .collect()
    }

    #[test]
    fn a_stall_raises_the_latency_of_requests_behind_it() {
        let calm = latencies(false);
        let stalled = latencies(true);
        // Without the stall every request takes its 1 ms service time.
        assert!(calm.iter().all(|&l| (l - 1_000.0).abs() < 1e-6));
        // Requests before the stall are untouched.
        assert_eq!(&stalled[..3], &calm[..3]);
        // The stalled request takes 10 ms; request 4 was due at 8 ms but
        // could only go out at 16 ms, so it waits 8 ms plus its service.
        assert!((stalled[3] - 10_000.0).abs() < 1e-6);
        assert!((stalled[4] - 9_000.0).abs() < 1e-6);
        assert!((stalled[5] - 8_000.0).abs() < 1e-6);
        // The backlog drains one request at a time, and every request
        // behind the stall reads slower than without it.
        assert!(stalled[3..].windows(2).all(|w| w[1] <= w[0]));
        assert!(stalled[4..].iter().zip(&calm[4..]).all(|(s, c)| s > c));
    }

    #[test]
    fn an_overloaded_generator_abandons_the_rest_of_the_step() {
        // One request per ms, 3 ms each: the backlog grows without bound.
        let out = run((0..1_000).map(|i| (i, ms(i as u64))), ms(30), ms(5), |_| {
            ms(3)
        });
        assert_eq!(out.samples.len() + out.unsent, 30);
        assert!(out.unsent > 0);
        assert!(out.samples.last().expect("some sent").lag_ms() >= 5.0);
    }

    #[test]
    fn schedules_interleave_clients() {
        let a: Vec<usize> = schedule(1_000.0, 0, 2).take(3).map(|(i, _)| i).collect();
        let b: Vec<(usize, Duration)> = schedule(1_000.0, 1, 2).take(2).collect();
        assert_eq!(a, vec![0, 2, 4]);
        assert_eq!(b, vec![(1, ms(1)), (3, ms(3))]);
    }
}
