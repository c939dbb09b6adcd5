//! The TCP front end: an accept loop, one lightweight thread per
//! connection, and a shared [`WorkerPool`] that bounds concurrent
//! request execution.
//!
//! Connection threads only parse and frame; every request body runs on
//! the pool, so a server with `workers` slots mines at most `workers`
//! requests at once no matter how many clients connect.

use crate::pool::WorkerPool;
use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::service::K2Service;
use crate::ServerError;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// A running TCP server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop; established
/// connections finish their in-flight request and close on the next
/// read.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    service: Arc<K2Service>,
    pool: Arc<WorkerPool>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `service` with `workers` mining slots.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<K2Service>,
        workers: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::new(WorkerPool::new(workers));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let service = Arc::clone(&service);
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("k2-serve-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { break };
                        let service = Arc::clone(&service);
                        let pool = Arc::clone(&pool);
                        let _ = thread::Builder::new()
                            .name("k2-serve-conn".into())
                            .spawn(move || serve_connection(stream, &service, &pool));
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(Self {
            addr: local,
            service,
            pool,
            stop,
            accept: Some(accept),
        })
    }

    /// The address the server is listening on (with the real port when
    /// bound ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`K2Service`].
    pub fn service(&self) -> &Arc<K2Service> {
        &self.service
    }

    /// The server's worker pool — hand it to
    /// [`LocalClient::with_pool`](crate::LocalClient::with_pool) so
    /// local and TCP requests contend for the same mining slots.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection: frame in, handle on the pool, frame out,
/// until the client hangs up or a protocol error occurs.
fn serve_connection(mut stream: TcpStream, service: &Arc<K2Service>, pool: &WorkerPool) {
    // Replies are whole frames written at once; holding one back for the
    // peer's ACK (Nagle) would only add the peer's delayed-ACK timer to
    // every round trip. Serving without the option is merely slower.
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF between requests
            Err(_) => return,
        };
        // A malformed request poisons only this one reply, not the
        // connection: the framing layer is still in sync.
        let response = match Request::decode(&payload) {
            Ok(req) => handle_on_pool(service, pool, req),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        };
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// Runs one request on the pool. A panic inside the handler becomes an
/// error reply: the connection, the worker and the server carry on.
pub(crate) fn handle_on_pool(
    service: &Arc<K2Service>,
    pool: &WorkerPool,
    req: Request,
) -> Response {
    let service = Arc::clone(service);
    pool.try_run(move || service.handle(req))
        .unwrap_or_else(|_| Response::Error {
            message: "internal error: the request handler panicked".into(),
        })
}

/// Sends `req` over `stream` and reads one response — the client-side
/// half of [`serve_connection`]'s loop, shared by [`TcpClient`].
///
/// [`TcpClient`]: crate::TcpClient
pub(crate) fn roundtrip(stream: &mut TcpStream, req: &Request) -> Result<Response, ServerError> {
    write_frame(stream, &req.encode())?;
    match read_frame(stream)? {
        Some(payload) => Response::decode(&payload),
        None => Err(ServerError::protocol("server closed the connection")),
    }
}
