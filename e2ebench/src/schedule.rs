//! Open-loop due-time accounting.
//!
//! Request `i` is due at `start + i * period`. The generator sends it at
//! its due time, or as soon as the previous request has completed if
//! that is later. Latency is measured from the due time, so a stall
//! charges every request that was due while it lasted (no coordinated
//! omission), and the generator's lateness `sent - due` is reported on
//! its own.

use std::time::Duration;

/// A fixed-rate schedule, in offsets from the run's start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub period: Duration,
}

/// One request's timing, as offsets from the run's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency charged to the request: from due time to completion.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

impl Schedule {
    pub fn due(&self, i: u32) -> Duration {
        self.period * i
    }

    /// When request `i` is sent, given when the previous one completed.
    pub fn send_at(&self, i: u32, previous_done: Duration) -> Duration {
        self.due(i).max(previous_done)
    }

    /// Replay a single-connection open loop whose requests take
    /// `service[i]` each; what the generator loop does with a clock.
    #[cfg(test)]
    pub fn simulate(&self, service: &[Duration]) -> Vec<Timing> {
        let mut done = Duration::ZERO;
        service
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let due = self.due(i as u32);
                let sent = self.send_at(i as u32, done);
                done = sent + s;
                Timing { due, sent, done }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_stall_charges_the_requests_due_during_it() {
        let schedule = Schedule { period: ms(10) };
        // Request 2 stalls for 45 ms; everything else takes 1 ms.
        let mut service = vec![ms(1); 8];
        service[2] = ms(45);
        let t = schedule.simulate(&service);
        // Before the stall: on time.
        assert_eq!(t[1].late(), ms(0));
        assert_eq!(t[1].latency(), ms(1));
        // The stalled request itself.
        assert_eq!(t[2].latency(), ms(45));
        // Request 3 was due at 30 ms but could only go at 65 ms: it is
        // charged the wait, and the generator reports 35 ms of lateness.
        assert_eq!(t[3].late(), ms(35));
        assert_eq!(t[3].latency(), ms(36));
        // Requests 4..6 queue behind it, each charged from its own due time.
        assert_eq!(t[4].latency(), ms(27));
        assert_eq!(t[5].latency(), ms(18));
        assert_eq!(t[6].latency(), ms(9));
        // Caught up again.
        assert_eq!(t[7].late(), ms(0));
        let worst_late = t.iter().map(Timing::late).max().unwrap();
        assert_eq!(worst_late, ms(35));
    }

    #[test]
    fn a_closed_loop_timer_would_hide_the_stall() {
        // Timed from send instead of due, request 3 looks fast: this is
        // the coordinated omission the due-time accounting avoids.
        let schedule = Schedule { period: ms(10) };
        let mut service = vec![ms(1); 5];
        service[2] = ms(45);
        let t = schedule.simulate(&service);
        assert_eq!(t[3].done - t[3].sent, ms(1));
        assert!(t[3].latency() > ms(30));
    }
}
