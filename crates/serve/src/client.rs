//! Client side of the wire protocol: one blocking request/response (or
//! request/stream) per call, used by the `narada submit` / `jobs` /
//! `fetch` / `shutdown` subcommands and by the acceptance tests.

use crate::proto::{read_frame, write_frame, JobOptions};
use narada_obs::Json;
use std::io::BufReader;
use std::net::TcpStream;

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// One request, one response frame.
    fn call(&mut self, req: &Json) -> Result<Json, String> {
        write_frame(&mut self.writer, req).map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.reader).map_err(|e| format!("recv: {e}"))? {
            Some(resp) => Ok(resp),
            None => Err("server closed the connection".into()),
        }
    }

    /// Checks a response's `ok` field, surfacing the server's error.
    fn checked(resp: Json) -> Result<Json, String> {
        match resp.get("ok") {
            Some(Json::Bool(true)) => Ok(resp),
            _ => Err(resp
                .get("error")
                .and_then(|e| e.as_str())
                .unwrap_or("server error")
                .to_string()),
        }
    }

    /// `ping` — liveness probe.
    pub fn ping(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj().with("cmd", Json::Str("ping".into())))?;
        Self::checked(resp)
    }

    /// `submit` — enqueue a job; returns its id.
    pub fn submit(&mut self, source: &str, options: &JobOptions) -> Result<u64, String> {
        let req = Json::obj()
            .with("cmd", Json::Str("submit".into()))
            .with("source", Json::Str(source.to_string()))
            .with("options", options.to_json());
        let resp = Self::checked(self.call(&req)?)?;
        resp.get("job")
            .and_then(|j| j.as_i64())
            .map(|j| j as u64)
            .ok_or_else(|| "submit response missing `job`".into())
    }

    /// `jobs` — the job table.
    pub fn jobs(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj().with("cmd", Json::Str("jobs".into())))?;
        Self::checked(resp)
    }

    /// `stats` — cache counters, sizes, capacities, uptime.
    pub fn stats(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj().with("cmd", Json::Str("stats".into())))?;
        Self::checked(resp)
    }

    /// `health` — one readiness frame: queue depth, in-flight jobs, cache
    /// occupancy per family, worker heartbeats, slow-job flags.
    pub fn health(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj().with("cmd", Json::Str("health".into())))?;
        Self::checked(resp)
    }

    /// `fetch` — a job's current state (`wait: false`) or its streamed
    /// completion (`wait: true`); `on_event` sees each progress frame.
    pub fn fetch(
        &mut self,
        job: u64,
        wait: bool,
        on_event: &mut dyn FnMut(&Json),
    ) -> Result<Json, String> {
        let req = Json::obj()
            .with("cmd", Json::Str("fetch".into()))
            .with("job", Json::Int(job as i64))
            .with("wait", Json::Bool(wait));
        write_frame(&mut self.writer, &req).map_err(|e| format!("send: {e}"))?;
        loop {
            let frame = read_frame(&mut self.reader)
                .map_err(|e| format!("recv: {e}"))?
                .ok_or("server closed the connection")?;
            if frame.get("event").is_some() {
                on_event(&frame);
                continue;
            }
            return Self::checked(frame);
        }
    }

    /// `shutdown` — drain and stop the server; returns its final
    /// response (completed/failed counts).
    pub fn shutdown(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj().with("cmd", Json::Str("shutdown".into())))?;
        Self::checked(resp)
    }
}

/// Waits (bounded) until a server accepts connections — for scripts and
/// tests that just started one.
pub fn wait_ready(addr: &str, timeout: std::time::Duration) -> Result<(), String> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        match Client::connect(addr).and_then(|mut c| c.ping()) {
            Ok(_) => return Ok(()),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(format!("server at {addr} not ready: {e}"));
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    }
}
