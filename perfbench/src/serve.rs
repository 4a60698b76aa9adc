//! The in-process `sspard` and its clients.  The benchmark talks to the
//! daemon only in its NDJSON protocol over TCP, through the daemon's own
//! `Client` (the client `sspar request` and `sspar-load` use), so a change
//! on either side of the wire shows in the serve figures.

use crate::json::{self, Json};
use ss_daemon::{Client, DaemonConfig, DaemonHandle};
use std::time::Instant;

/// A running daemon with one open connection per client.
pub struct Daemon {
    handle: DaemonHandle,
    clients: Vec<Client>,
}

/// The reply to one request line, with its round-trip time.
pub struct Reply {
    pub millis: f64,
    pub response: std::io::Result<String>,
}

impl Daemon {
    /// Starts a daemon on a free local port with `workers` workers and as
    /// many shards, each tenant's artifact cache bounded to
    /// `cache_capacity` programs, and opens `connections` connections to
    /// it.
    pub fn start(
        workers: usize,
        connections: usize,
        cache_capacity: usize,
    ) -> std::io::Result<Daemon> {
        let handle = ss_daemon::start(DaemonConfig {
            workers,
            shards: workers,
            cache_capacity: Some(cache_capacity),
            ..DaemonConfig::default()
        })?;
        let addr = handle.local_addr().to_string();
        let clients = (0..connections)
            .map(|_| Client::connect(&addr))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Daemon { handle, clients })
    }

    /// Sends `lines` in a closed loop: connection `c` sends lines
    /// `c, c + C, c + 2C, …` one after another, each after the previous
    /// reply.  Returns the replies in line order and the wall time of the
    /// whole batch in seconds.
    pub fn batch(&mut self, lines: &[String]) -> (Vec<Reply>, f64) {
        let n = self.clients.len();
        let started = Instant::now();
        let mut per_client: Vec<Vec<(usize, Reply)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        (c..lines.len())
                            .step_by(n)
                            .map(|i| (i, call(client, &lines[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("serve client thread panicked"))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let mut replies: Vec<(usize, Reply)> = per_client.drain(..).flatten().collect();
        replies.sort_by_key(|(i, _)| *i);
        (replies.into_iter().map(|(_, r)| r).collect(), wall)
    }

    /// One request on the first connection.
    pub fn call(&mut self, line: &str) -> Reply {
        call(&mut self.clients[0], line)
    }

    /// Sends `shutdown`, closes the connections and waits for the
    /// acceptor and every worker to exit.
    pub fn stop(mut self) {
        let _ = self.clients[0].call(r#"{"op":"shutdown"}"#);
        self.clients.clear();
        self.handle.join();
    }
}

fn call(client: &mut Client, line: &str) -> Reply {
    let started = Instant::now();
    let response = client.call(line);
    Reply {
        millis: started.elapsed().as_secs_f64() * 1e3,
        response,
    }
}

/// A `run` request line.  Catalogue kernels go by name; other programs
/// carry their source.
pub fn run_line(
    kernel: Option<&str>,
    name: &str,
    source: &str,
    mode: &str,
    threads: usize,
    scale: i64,
    seed: u64,
) -> String {
    let program = match kernel {
        Some(k) => format!(r#""kernel":{}"#, json::string(k)),
        None => format!(
            r#""name":{},"source":{}"#,
            json::string(name),
            json::string(source)
        ),
    };
    format!(
        r#"{{"op":"run",{program},"mode":"{mode}","threads":{threads},"scale":{scale},"seed":{seed},"include_heap":true}}"#
    )
}

/// The `result` object of a successful response line.
pub fn result(response: &str) -> Result<Json, String> {
    let value = json::parse(response).map_err(|e| format!("unreadable response: {e}"))?;
    if value.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("daemon error: {}", truncate(response)));
    }
    value
        .get("result")
        .cloned()
        .ok_or_else(|| "response without a result".to_string())
}

fn truncate(text: &str) -> &str {
    let end = text.char_indices().nth(200).map_or(text.len(), |(i, _)| i);
    &text[..end]
}

/// What a `run` result reports: final heap, dispatched loops, verdicts.
pub fn observed(result: &Json) -> Result<crate::checks::Observed, String> {
    let heap = json::heap_from_json(result.get("heap").ok_or("result without a heap")?)?;
    let ints = |v: &Json| v.as_i64().and_then(|i| u32::try_from(i).ok());
    let dispatched = result
        .get("dispatched")
        .and_then(Json::as_array)
        .ok_or("result without 'dispatched'")?
        .iter()
        .map(|v| ints(v).map(ss_ir::LoopId).ok_or("bad loop id"))
        .collect::<Result<Vec<_>, _>>()?;
    let verdicts = result
        .get("verdicts")
        .and_then(Json::as_array)
        .ok_or("result without 'verdicts'")?
        .iter()
        .map(|v| {
            let id = v
                .get("loop")
                .and_then(ints)
                .ok_or("verdict without a loop")?;
            let Some(Json::Str(label)) = v.get("verdict") else {
                return Err("verdict without a label");
            };
            let baseline = v.get("baseline_parallel") == Some(&Json::Bool(true));
            Ok((ss_ir::LoopId(id), label.clone(), baseline))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(crate::checks::Observed {
        heap,
        dispatched,
        verdicts,
    })
}
