//! The interactive client: a closed loop with one request in flight.
//!
//! [`Exchange::requests`] is the server's input. It hands over line `i+1`
//! only after [`Exchange::responses`], the server's output, has seen the
//! newline that ends response `i` — the pipe client that reads each answer
//! before it sends the next request. Both sides stamp the time, so each
//! request's latency runs from hand-over to its response line being
//! written.

use std::io::{self, BufRead, Read, Write};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct State {
    handed_ns: Vec<u64>,
    answered_ns: Vec<u64>,
    output: Vec<u8>,
}

/// Shared state of one closed-loop session.
#[derive(Debug)]
pub struct Exchange {
    epoch: Instant,
    state: Mutex<State>,
    answered: Condvar,
}

/// What one session handed over and got back.
#[derive(Debug)]
pub struct Transcript {
    /// Hand-over time of each request, in ns since the session began.
    handed_ns: Vec<u64>,
    /// Time each response line was complete, in ns since the session began.
    answered_ns: Vec<u64>,
    /// Every byte the server wrote.
    pub output: Vec<u8>,
}

impl Transcript {
    /// Per-request latency in microseconds, for every answered request.
    #[must_use]
    pub fn latencies_us(&self) -> Vec<f64> {
        self.handed_ns
            .iter()
            .zip(&self.answered_ns)
            .map(|(&h, &a)| a.saturating_sub(h) as f64 / 1e3)
            .collect()
    }
}

impl Exchange {
    /// A session of `requests` requests whose responses total about
    /// `output_bytes`; both are only capacity hints.
    #[must_use]
    pub fn new(requests: usize, output_bytes: usize) -> Exchange {
        Exchange {
            epoch: Instant::now(),
            state: Mutex::new(State {
                handed_ns: Vec::with_capacity(requests),
                answered_ns: Vec::with_capacity(requests),
                output: Vec::with_capacity(output_bytes),
            }),
            answered: Condvar::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The server's input: `lines`, one at a time.
    pub fn requests<'a>(&'a self, lines: &'a [String]) -> Requests<'a> {
        Requests {
            exchange: self,
            lines,
            next: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The server's output.
    pub fn responses(&self) -> Responses<'_> {
        Responses { exchange: self }
    }

    #[must_use]
    pub fn finish(self) -> Transcript {
        let state = self.state.into_inner().expect("exchange state poisoned");
        Transcript {
            handed_ns: state.handed_ns,
            answered_ns: state.answered_ns,
            output: state.output,
        }
    }
}

/// See [`Exchange::requests`].
#[derive(Debug)]
pub struct Requests<'a> {
    exchange: &'a Exchange,
    lines: &'a [String],
    next: usize,
    buf: Vec<u8>,
    pos: usize,
}

impl BufRead for Requests<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.lines.len() {
            let ex = self.exchange;
            let mut state = ex.state.lock().expect("exchange state poisoned");
            while state.answered_ns.len() < state.handed_ns.len() {
                state = ex.answered.wait(state).expect("exchange state poisoned");
            }
            self.buf.clear();
            self.buf.extend_from_slice(self.lines[self.next].as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            self.next += 1;
            let now = ex.now_ns();
            state.handed_ns.push(now);
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

impl Read for Requests<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// See [`Exchange::responses`].
#[derive(Debug)]
pub struct Responses<'a> {
    exchange: &'a Exchange,
}

impl Write for Responses<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let ex = self.exchange;
        let mut state = ex.state.lock().expect("exchange state poisoned");
        state.output.extend_from_slice(bytes);
        let lines_ended = bytes.iter().filter(|&&b| b == b'\n').count();
        if lines_ended > 0 {
            let now = ex.now_ns();
            state
                .answered_ns
                .extend(std::iter::repeat(now).take(lines_ended));
            ex.answered.notify_all();
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A stand-in server: answers each line after a short pause, writing
    /// the response in two pieces as `writeln!` may.
    fn echo_upper(input: impl BufRead, mut output: impl Write) {
        for line in input.lines() {
            let line = line.unwrap();
            std::thread::sleep(Duration::from_millis(2));
            output.write_all(line.to_uppercase().as_bytes()).unwrap();
            output.write_all(b"\n").unwrap();
        }
    }

    #[test]
    fn stamps_pair_each_request_with_its_response_in_order() {
        let lines: Vec<String> = (0..5).map(|i| format!("req{i}")).collect();
        let exchange = Exchange::new(lines.len(), 0);
        std::thread::scope(|s| {
            let requests = exchange.requests(&lines);
            let responses = exchange.responses();
            s.spawn(move || echo_upper(requests, responses));
        });
        let transcript = exchange.finish();
        assert_eq!(transcript.output, b"REQ0\nREQ1\nREQ2\nREQ3\nREQ4\n");
        assert_eq!(transcript.handed_ns.len(), 5);
        assert_eq!(transcript.answered_ns.len(), 5);
        for i in 0..5 {
            // Each response follows its own hand-over ...
            assert!(transcript.answered_ns[i] >= transcript.handed_ns[i] + 2_000_000);
            // ... and the next request waits for it.
            if i + 1 < 5 {
                assert!(transcript.handed_ns[i + 1] >= transcript.answered_ns[i]);
            }
        }
        assert!(transcript.latencies_us().iter().all(|&us| us >= 2000.0));
    }
}
