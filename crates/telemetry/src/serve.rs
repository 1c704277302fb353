//! The scrape server: a dependency-free HTTP/1.0 responder for live
//! observability pages (DESIGN.md §14).
//!
//! Design rules, inherited from the crate's charter:
//!
//! * **Plain `std`.** `std::net::TcpListener` (plus a unix-socket
//!   variant) and threads — no async runtime, no HTTP library. The
//!   protocol surface is deliberately tiny: `GET <path>`, one response,
//!   `Connection: close`.
//! * **No upward dependencies.** The server knows nothing about
//!   schedulers, health reports, or clocks. Each route is a closure
//!   producing a page; the wall-clock seam is an injected `now()`
//!   closure (the CLI adapts the runtime's `Clock` trait), so request
//!   deadlines are testable with a virtual clock like everything else.
//! * **Bounded everything.** At most `max_connections` handler threads;
//!   excess connections get an immediate `503`. Request heads are read
//!   through socket read timeouts under an overall deadline; responses
//!   are written under a write timeout. A scrape can be slow — it can
//!   never wedge the daemon.
//!
//! Reads from live registries are torn-page-free by construction: every
//! provider snapshots through the seqlock rings or atomic counters and
//! renders one `String`, which is written with an exact
//! `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The injected wall-clock seam: seconds from an arbitrary origin.
pub type TimeSource = Arc<dyn Fn() -> f64 + Send + Sync>;

/// One rendered page.
#[derive(Debug, Clone)]
pub struct Page {
    /// The response `Content-Type`.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

impl Page {
    /// A Prometheus text-exposition page.
    pub fn metrics(body: String) -> Page {
        Page {
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// A JSON page.
    pub fn json(body: String) -> Page {
        Page {
            content_type: "application/json",
            body,
        }
    }
}

type Provider = Arc<dyn Fn() -> Page + Send + Sync>;

/// The route table: exact-match paths to page providers.
#[derive(Clone, Default)]
pub struct Router {
    routes: Vec<(String, Provider)>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field(
                "routes",
                &self.routes.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Router {
    /// An empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Adds a route (builder form). Paths match exactly, query strings
    /// stripped.
    pub fn route(
        mut self,
        path: &str,
        provider: impl Fn() -> Page + Send + Sync + 'static,
    ) -> Router {
        self.routes.push((path.to_string(), Arc::new(provider)));
        self
    }

    /// The registered paths, in registration order.
    pub fn paths(&self) -> Vec<String> {
        self.routes.iter().map(|(p, _)| p.clone()).collect()
    }

    fn find(&self, path: &str) -> Option<&Provider> {
        self.routes.iter().find(|(p, _)| p == path).map(|(_, h)| h)
    }
}

/// Server limits and deadlines.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Concurrent handler threads; further connections get `503`.
    pub max_connections: usize,
    /// Overall per-request deadline, seconds (read + handle + write),
    /// enforced against the injected [`TimeSource`].
    pub request_deadline: f64,
    /// Per-socket-operation read/write timeout, seconds.
    pub io_timeout: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 32,
            request_deadline: 5.0,
            io_timeout: 1.0,
        }
    }
}

/// What the server listens on.
enum Endpoint {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

/// A running scrape server. Dropping it without
/// [`shutdown`](ScrapeServer::shutdown) leaves the accept thread
/// running for the process lifetime — call `shutdown` for a graceful
/// stop.
#[derive(Debug)]
pub struct ScrapeServer {
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    endpoint: Endpoint,
    stats: Arc<ServerStats>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// Served/rejected request counters (relaxed; for tests and `/metrics`).
#[derive(Debug, Default)]
struct ServerStats {
    served: AtomicU64,
    rejected: AtomicU64,
    active: AtomicUsize,
}

impl ScrapeServer {
    /// Binds a TCP listener on `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port) and starts accepting.
    pub fn bind_tcp(
        addr: &str,
        router: Router,
        cfg: ServeConfig,
        time: TimeSource,
    ) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let accept = {
            let (stop, stats) = (Arc::clone(&stop), Arc::clone(&stats));
            let router = Arc::new(router);
            std::thread::spawn(move || {
                accept_loop(
                    || listener.accept().map(|(s, _)| s),
                    stop,
                    stats,
                    router,
                    cfg,
                    time,
                );
            })
        };
        Ok(ScrapeServer {
            stop,
            accept_thread: Some(accept),
            endpoint: Endpoint::Tcp(local),
            stats,
        })
    }

    /// Binds a unix-domain socket at `path` (removed and re-created) and
    /// starts accepting.
    #[cfg(unix)]
    pub fn bind_unix(
        path: &std::path::Path,
        router: Router,
        cfg: ServeConfig,
        time: TimeSource,
    ) -> std::io::Result<ScrapeServer> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let accept = {
            let (stop, stats) = (Arc::clone(&stop), Arc::clone(&stats));
            let router = Arc::new(router);
            std::thread::spawn(move || {
                accept_loop(
                    || listener.accept().map(|(s, _)| s),
                    stop,
                    stats,
                    router,
                    cfg,
                    time,
                );
            })
        };
        Ok(ScrapeServer {
            stop,
            accept_thread: Some(accept),
            endpoint: Endpoint::Unix(path.to_path_buf()),
            stats,
        })
    }

    /// The bound TCP address (`None` for unix-socket servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self.endpoint {
            Endpoint::Tcp(addr) => Some(addr),
            #[cfg(unix)]
            Endpoint::Unix(_) => None,
        }
    }

    /// Requests answered with a routed page or 404/405.
    pub fn served(&self) -> u64 {
        self.stats.served.load(Ordering::Relaxed)
    }

    /// Connections refused with `503` at the concurrency bound.
    pub fn rejected(&self) -> u64 {
        self.stats.rejected.load(Ordering::Relaxed)
    }

    /// Stops accepting, unblocks the accept thread, and joins it.
    /// In-flight handler threads finish under their own deadlines.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, Duration::from_millis(250));
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The stream surface a handler needs (TCP and unix sockets both).
trait Conn: Read + Write + Send + 'static {
    fn set_timeouts(&self, io_timeout: Duration);
}

impl Conn for TcpStream {
    fn set_timeouts(&self, io_timeout: Duration) {
        let _ = self.set_read_timeout(Some(io_timeout));
        let _ = self.set_write_timeout(Some(io_timeout));
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_timeouts(&self, io_timeout: Duration) {
        let _ = self.set_read_timeout(Some(io_timeout));
        let _ = self.set_write_timeout(Some(io_timeout));
    }
}

fn accept_loop<C: Conn>(
    mut accept: impl FnMut() -> std::io::Result<C>,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    router: Arc<Router>,
    cfg: ServeConfig,
    time: TimeSource,
) {
    while !stop.load(Ordering::SeqCst) {
        let Ok(stream) = accept() else { continue };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if stats.active.load(Ordering::Acquire) >= cfg.max_connections.max(1) {
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            stream.set_timeouts(Duration::from_secs_f64(cfg.io_timeout.max(0.01)));
            let _ = stream.write_all(
                b"HTTP/1.0 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
            );
            continue;
        }
        stats.active.fetch_add(1, Ordering::AcqRel);
        let (stats, router, time) = (Arc::clone(&stats), Arc::clone(&router), Arc::clone(&time));
        std::thread::spawn(move || {
            handle_connection(stream, &router, cfg, &time, &stats);
            stats.active.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

/// Longest request head the server reads before answering `414`.
const MAX_HEAD: usize = 8 * 1024;

fn handle_connection<C: Conn>(
    mut stream: C,
    router: &Router,
    cfg: ServeConfig,
    time: &TimeSource,
    stats: &ServerStats,
) {
    stream.set_timeouts(Duration::from_secs_f64(cfg.io_timeout.max(0.01)));
    let started = time();
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the blank line ending the request head, the size bound,
    // or the overall deadline.
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() >= MAX_HEAD {
            let _ = respond(&mut stream, 414, "URI Too Long", None);
            return;
        }
        if time() - started > cfg.request_deadline {
            let _ = respond(&mut stream, 408, "Request Timeout", None);
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed before a full head
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // per-op timeout; the deadline check above bounds the loop
            }
            Err(_) => return,
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let request_line = request_line.lines().next().unwrap_or("");
    #[allow(clippy::disallowed_methods)] // HTTP, not a sealed line
    let mut parts = request_line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        stats.served.fetch_add(1, Ordering::Relaxed);
        let _ = respond(&mut stream, 405, "Method Not Allowed", None);
        return;
    }
    let path = target.split('?').next().unwrap_or("");
    stats.served.fetch_add(1, Ordering::Relaxed);
    match router.find(path) {
        Some(provider) => {
            let page = provider();
            let _ = respond(&mut stream, 200, "OK", Some(&page));
        }
        None => {
            let _ = respond(&mut stream, 404, "Not Found", None);
        }
    }
}

fn respond<C: Conn>(
    stream: &mut C,
    status: u16,
    reason: &str,
    page: Option<&Page>,
) -> std::io::Result<()> {
    let (content_type, body) = match page {
        Some(p) => (p.content_type, p.body.as_bytes()),
        None => ("text/plain; charset=utf-8", &b""[..]),
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A minimal scrape client for tests and the `easched scrape`
/// subcommand: one `GET`, returns `(status, body)`.
pub fn http_get(
    addr: &SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect_timeout(addr, timeout)?;
    request_over(stream, path, timeout)
}

/// [`http_get`] over a unix-domain socket.
#[cfg(unix)]
pub fn uds_get(
    socket: &std::path::Path,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let stream = UnixStream::connect(socket)?;
    request_over(stream, path, timeout)
}

fn request_over<C: Conn>(
    mut stream: C,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    stream.set_timeouts(timeout);
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    }
    let text = String::from_utf8_lossy(&response).into_owned();
    #[allow(clippy::disallowed_methods)] // HTTP, not a sealed line
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> TimeSource {
        let origin = std::time::Instant::now();
        Arc::new(move || origin.elapsed().as_secs_f64())
    }

    fn test_router() -> Router {
        Router::new()
            .route("/metrics", || Page::metrics("up 1\n".to_string()))
            .route("/health", || Page::json("{\"ok\":true}".to_string()))
    }

    #[test]
    fn serves_routes_and_404s_unknown_paths() {
        let server =
            ScrapeServer::bind_tcp("127.0.0.1:0", test_router(), ServeConfig::default(), wall())
                .expect("bind");
        let addr = server.local_addr().expect("tcp server has an address");
        let timeout = Duration::from_secs(5);
        let (status, body) = http_get(&addr, "/metrics", timeout).expect("get /metrics");
        assert_eq!((status, body.as_str()), (200, "up 1\n"));
        let (status, body) = http_get(&addr, "/health", timeout).expect("get /health");
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
        let (status, _) = http_get(&addr, "/nope", timeout).expect("get /nope");
        assert_eq!(status, 404);
        // Query strings are stripped before matching.
        let (status, _) = http_get(&addr, "/metrics?x=1", timeout).expect("get with query");
        assert_eq!(status, 200);
        assert_eq!(server.served(), 4);
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_methods() {
        let server =
            ScrapeServer::bind_tcp("127.0.0.1:0", test_router(), ServeConfig::default(), wall())
                .expect("bind");
        let addr = server.local_addr().unwrap();
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.0\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
        server.shutdown();
    }

    #[test]
    fn oversize_request_heads_are_refused() {
        let server =
            ScrapeServer::bind_tcp("127.0.0.1:0", test_router(), ServeConfig::default(), wall())
                .expect("bind");
        let addr = server.local_addr().unwrap();
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        let long = "x".repeat(MAX_HEAD + 1024);
        let _ = stream.write_all(format!("GET /{long} HTTP/1.0\r\n").as_bytes());
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.0 414"), "{response}");
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_variant_serves_and_cleans_up() {
        let path =
            std::env::temp_dir().join(format!("easched-serve-test-{}.sock", std::process::id()));
        let server = ScrapeServer::bind_unix(&path, test_router(), ServeConfig::default(), wall())
            .expect("bind unix");
        let (status, body) =
            uds_get(&path, "/metrics", Duration::from_secs(5)).expect("get over uds");
        assert_eq!((status, body.as_str()), (200, "up 1\n"));
        server.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn shutdown_joins_the_accept_thread() {
        let server =
            ScrapeServer::bind_tcp("127.0.0.1:0", test_router(), ServeConfig::default(), wall())
                .expect("bind");
        let addr = server.local_addr().unwrap();
        server.shutdown();
        // The listener is gone: a fresh connection gets refused (or the
        // ephemeral port is rebindable — both prove the accept loop
        // exited; the join in shutdown() already proved it returned).
        let after = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        drop(after);
    }
}
