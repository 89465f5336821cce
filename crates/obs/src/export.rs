//! Metrics export: Prometheus text rendering, a tiny std-only HTTP
//! listener, and a snapshot-file mode for headless runs.
//!
//! [`render_prometheus`] turns a [`MetricsRegistry`] plus any extra
//! gauges (the windowed-telemetry rates from [`crate::window`]) into the
//! Prometheus text exposition format (v0.0.4): counters and gauges as-is,
//! histograms as summaries with interpolated quantiles. [`ExportServer`]
//! serves that text from a plain `std::net::TcpListener` — no HTTP crate,
//! one thread, every request re-renders. [`SnapshotFile`] writes the same
//! body to a file atomically on a session-clock interval, for runs where
//! nobody can curl.
//!
//! The renderer and snapshot writer take time only from their callers
//! (session clock), never a wall clock: clippy's `disallowed_methods`
//! (clippy.toml) applies to this file like any other.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{Metric, MetricsRegistry};

/// Rewrite a dotted metric name into a Prometheus-legal one:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, with `.` and other separators mapped to
/// `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render the registry plus `extra` `(name, value)` gauges as Prometheus
/// text. Registration order is preserved; extras follow the registry.
pub fn render_prometheus(registry: &MetricsRegistry, extra: &[(String, f64)]) -> String {
    let mut out = String::new();
    for (name, metric) in registry.entries() {
        let pname = prometheus_name(&name);
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {pname} counter\n"));
                out.push_str(&format!("{pname} {}\n", c.get()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("# TYPE {pname} gauge\n"));
                out.push_str(&format!("{pname} {}\n", g.get()));
            }
            Metric::Histogram(h) => {
                let s = h.snapshot();
                out.push_str(&format!("# TYPE {pname} summary\n"));
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "{pname}{{quantile=\"{label}\"}} {}\n",
                        s.quantile(q)
                    ));
                }
                out.push_str(&format!("{pname}_sum {}\n", s.sum));
                out.push_str(&format!("{pname}_count {}\n", s.count));
            }
        }
    }
    for (name, value) in extra {
        let pname = prometheus_name(name);
        out.push_str(&format!("# TYPE {pname} gauge\n"));
        out.push_str(&format!("{pname} {}\n", fmt_value(*value)));
    }
    out
}

/// A one-thread HTTP listener serving whatever `render` returns.
///
/// Every connection gets a fresh rendering with status 200 and
/// `text/plain; version=0.0.4` (the Prometheus exposition content type),
/// regardless of path. Dropping the server (or calling
/// [`ExportServer::stop`]) shuts the thread down.
pub struct ExportServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ExportServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral) and
    /// start serving.
    pub fn serve<F>(addr: &str, render: F) -> std::io::Result<ExportServer>
    where
        F: Fn() -> String + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("pm-obs-export".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let _ = serve_one(&mut stream, &render);
                }
            })?;
        Ok(ExportServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ExportServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(stream: &mut TcpStream, render: &(impl Fn() -> String + Send)) -> std::io::Result<()> {
    // Drain the request line + headers; we answer everything the same
    // way, so parsing stops at the first blank line (or 4 KiB).
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = [0u8; 1024];
    let mut seen = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render();
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Periodic snapshot-file writer for headless runs.
///
/// `tick(now, body)` writes `body` to the target path (atomic
/// write-then-rename) whenever at least `interval_secs` of session time
/// has passed since the last write. Driven entirely by the caller's
/// clock.
pub struct SnapshotFile {
    path: PathBuf,
    interval_secs: f64,
    last: Option<f64>,
}

impl SnapshotFile {
    /// A writer targeting `path` every `interval_secs` of session time.
    pub fn new(path: impl Into<PathBuf>, interval_secs: f64) -> Self {
        SnapshotFile {
            path: path.into(),
            interval_secs: interval_secs.max(0.0),
            last: None,
        }
    }

    /// The target path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write `body` if the interval has elapsed (or on the first call).
    /// Returns `Ok(true)` when a write happened.
    pub fn tick(&mut self, now: f64, body: &str) -> std::io::Result<bool> {
        if let Some(last) = self.last {
            if now - last < self.interval_secs {
                return Ok(false);
            }
        }
        self.write(body)?;
        self.last = Some(now);
        Ok(true)
    }

    /// Unconditional atomic write (tmp file + rename).
    pub fn write(&self, body: &str) -> std::io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, &self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prometheus_name("sender.data_sent"), "sender_data_sent");
        assert_eq!(
            prometheus_name("farm.window.live_em"),
            "farm_window_live_em"
        );
        assert_eq!(prometheus_name("9lives"), "_lives");
        assert_eq!(prometheus_name(""), "_");
    }

    #[test]
    fn render_covers_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("net.sent").add(42);
        reg.gauge("mux.active").set(3);
        let h = reg.histogram("decode.micros");
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        let text = render_prometheus(&reg, &[("farm.window.live_em".into(), 1.25)]);
        assert!(text.contains("# TYPE net_sent counter\nnet_sent 42\n"));
        assert!(text.contains("# TYPE mux_active gauge\nmux_active 3\n"));
        assert!(text.contains("# TYPE decode_micros summary\n"));
        assert!(text.contains("decode_micros{quantile=\"0.5\"}"));
        assert!(text.contains("decode_micros_count 4\n"));
        assert!(text.contains("decode_micros_sum 100\n"));
        assert!(text.contains("# TYPE farm_window_live_em gauge\nfarm_window_live_em 1.25\n"));
    }

    #[test]
    fn server_answers_http_with_fresh_renders() {
        let reg = MetricsRegistry::new();
        let counter = reg.counter("hits");
        let mut server =
            ExportServer::serve("127.0.0.1:0", move || render_prometheus(&reg, &[])).unwrap();
        let addr = server.local_addr();

        let fetch = |addr: SocketAddr| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        let first = fetch(addr);
        assert!(first.starts_with("HTTP/1.1 200 OK"));
        assert!(first.contains("text/plain; version=0.0.4"));
        assert!(first.contains("hits 0\n"));

        counter.add(5);
        let second = fetch(addr);
        assert!(second.contains("hits 5\n"), "renders are live: {second}");

        server.stop();
        // Stopped server no longer accepts.
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Listener may be mid-teardown; a connect that succeeds must
                // at least get no response.
                true
            }
        );
    }

    #[test]
    fn snapshot_file_respects_interval_and_is_atomic() {
        let dir = std::env::temp_dir().join("pm_obs_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.prom");
        let _ = std::fs::remove_file(&path);
        let mut snap = SnapshotFile::new(&path, 2.0);
        assert!(snap.tick(0.0, "a 1\n").unwrap()); // first write always lands
        assert!(!snap.tick(1.0, "a 2\n").unwrap()); // inside interval
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a 1\n");
        assert!(snap.tick(2.5, "a 3\n").unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a 3\n");
        // No stray tmp file left behind.
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_file(&path);
    }
}
