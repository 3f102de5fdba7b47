//! The daemon's HTTP listener: Prometheus text on `GET /metrics`, the
//! health verdicts on `GET /healthz`.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use super::bad;
use crate::Result;

/// A dependency-free Prometheus exposition endpoint: a background
/// thread serving the most recently [`published`](MetricsServer::publish)
/// text on `GET /metrics` (and `/`), plus the most recent
/// [`publish_health`](MetricsServer::publish_health) JSON on
/// `GET /healthz`. Dropping the server stops the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    body: Arc<Mutex<String>>,
    health: Arc<Mutex<String>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port) and
    /// starts the accept loop.
    ///
    /// # Errors
    /// [`crate::CapGpuError::BadConfig`] when the bind fails.
    pub fn bind(port: u16) -> Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| bad(format!("metrics listener bind: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| bad(format!("metrics listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| bad(format!("metrics listener: {e}")))?;
        let body = Arc::new(Mutex::new(String::new()));
        let health = Arc::new(Mutex::new(String::from("{}")));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let body = Arc::clone(&body);
            let health = Arc::clone(&health);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_loop(&listener, &body, &health, &stop))
        };
        Ok(MetricsServer {
            addr,
            body,
            health,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the text served on the next scrape.
    pub fn publish(&self, text: &str) {
        if let Ok(mut b) = self.body.lock() {
            b.clear();
            b.push_str(text);
        }
    }

    /// Replaces the JSON served on the next `GET /healthz` (see
    /// [`Daemon::health_json`](super::Daemon::health_json)).
    pub fn publish_health(&self, json: &str) {
        if let Ok(mut h) = self.health.lock() {
            h.clear();
            h.push_str(json);
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Metrics,
    Health,
    NotFound,
}

/// Routes a request by its path, the second whitespace-separated token
/// of the request line: `/metrics` and `/` get the exposition,
/// `/healthz` the health JSON, anything else a 404. A request with no
/// path gets the exposition.
fn route(request: &[u8]) -> Route {
    let head = String::from_utf8_lossy(request);
    match head.split_whitespace().nth(1).unwrap_or("/") {
        "/metrics" | "/" => Route::Metrics,
        "/healthz" => Route::Health,
        _ => Route::NotFound,
    }
}

fn serve_loop(
    listener: &TcpListener,
    body: &Arc<Mutex<String>>,
    health: &Arc<Mutex<String>>,
    stop: &Arc<AtomicBool>,
) {
    use std::io::{Read as _, Write as _};
    const METRICS_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
                let mut req = [0u8; 1024];
                let n = stream.read(&mut req).unwrap_or(0);
                let (status, content_type, text) = match route(&req[..n]) {
                    Route::Metrics => {
                        let text = body.lock().map(|b| b.clone()).unwrap_or_default();
                        ("200 OK", METRICS_TYPE, text)
                    }
                    Route::Health => {
                        let text = health.lock().map(|h| h.clone()).unwrap_or_default();
                        ("200 OK", "application/json", text)
                    }
                    Route::NotFound => ("404 Not Found", METRICS_TYPE, String::from("not found\n")),
                };
                let response = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{text}",
                    text.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    /// The route of a request whose path is `path`.
    fn route_of_path(path: Option<&str>) -> Route {
        match path {
            None | Some("/metrics" | "/") => Route::Metrics,
            Some("/healthz") => Route::Health,
            Some(_) => Route::NotFound,
        }
    }

    /// Request-line syntax, the three served paths and their near
    /// misses, Unicode whitespace (NBSP, NEL), invalid UTF-8 and NUL.
    const PIECES: [&[u8]; 22] = [
        b"GET",
        b"POST",
        b" ",
        b"\t",
        b"\r\n",
        b"/",
        b"/metrics",
        b"/healthz",
        b"/metrics/",
        b"/healthz?x=1",
        b"/METRICS",
        b"metrics",
        b"HTTP/1.1",
        b"Host: localhost",
        b"\xc2\xa0",
        b"\xc2\x85",
        b"\xe2\x80\x83",
        b"\xff",
        b"\xc2",
        b"\x00",
        b"\xe7\x94\xb5",
        b"?",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any request of up to 1 KiB (what the listener reads) routes
        /// without panicking, by the second whitespace-separated token of
        /// its lossy text.
        #[test]
        fn arbitrary_bytes_route_without_panicking(
            bytes in prop::collection::vec(0u16..256, 0..1025),
            pieces in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..64),
        ) {
            let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let mut structured = pieces.concat();
            structured.truncate(1024);
            for request in [raw, structured] {
                let head = String::from_utf8_lossy(&request);
                prop_assert_eq!(
                    route(&request),
                    route_of_path(head.split_whitespace().nth(1))
                );
            }
        }

        /// A request line routes by its path alone, whatever method
        /// precedes it and whatever bytes follow it.
        #[test]
        fn request_lines_route_by_their_path(
            method in prop::sample::select(vec!["GET", "HEAD", "POST", "X"]),
            path in prop::sample::select(vec![
                "/", "/metrics", "/healthz", "/metrics/", "/healthz/", "//", "/nope",
                "/metricsx", "/healthz?", "metrics", "/METRICS", "*",
            ]),
            sep in prop::sample::select(vec![" ", "\t", "\r\n", " \t "]),
            tail in prop::collection::vec(0u16..256, 0..960),
        ) {
            let mut request = format!("{method}{sep}{path}{sep}").into_bytes();
            request.extend(tail.iter().map(|&b| b as u8));
            prop_assert_eq!(route(&request), route_of_path(Some(path)));
        }
    }

    #[test]
    fn requests_without_a_path_get_the_metrics() {
        for request in [&b""[..], b"GET", b"  \r\n", b"\xff\xfe"] {
            assert_eq!(route(request), Route::Metrics, "{request:?}");
        }
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn metrics_server_serves_published_text() {
        let server = MetricsServer::bind(0).unwrap();
        server.publish("capgpud_power_watts{backend=\"sim\"} 899.5\n");
        let addr = server.local_addr();
        let ok = get(addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("capgpud_power_watts{backend=\"sim\"} 899.5"));
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        drop(server);
        // Port is released after drop (bind again succeeds).
        let again = std::net::TcpListener::bind(addr);
        assert!(again.is_ok());
    }

    #[test]
    fn a_silent_client_stalls_neither_publish_nor_the_next_scrape() {
        let server = MetricsServer::bind(0).unwrap();
        // Accepted first (the kernel's accept queue is FIFO), so the one
        // accept thread spends its 200 ms read limit on it before the
        // scrape below.
        let silent = TcpStream::connect(server.local_addr()).unwrap();
        let t0 = Instant::now();
        server.publish("capgpud_periods_total 2\n");
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "{:?}",
            t0.elapsed()
        );
        let t0 = Instant::now();
        let reply = get(server.local_addr(), "/metrics");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.ends_with("capgpud_periods_total 2\n"), "{reply}");
        drop(silent);
    }

    #[test]
    fn an_oversized_request_gets_an_answer_or_a_close_and_scrapes_go_on() {
        let server = MetricsServer::bind(0).unwrap();
        server.publish("capgpud_periods_total 1\n");
        let mut big = TcpStream::connect(server.local_addr()).unwrap();
        big.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        big.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut req = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        req.resize(64 * 1024, b'a');
        // The listener reads 1 KiB, answers and closes: the rest of the
        // write may be refused with a reset.
        let _ = big.write_all(&req);
        let mut reply = Vec::new();
        match big.read_to_end(&mut reply) {
            Ok(_) => assert!(
                reply.is_empty() || reply.starts_with(b"HTTP/1.1 200 OK"),
                "{}",
                String::from_utf8_lossy(&reply)
            ),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "the listener neither answered nor closed: {e}"
            ),
        }
        assert!(get(server.local_addr(), "/metrics").starts_with("HTTP/1.1 200 OK"));
    }
}
