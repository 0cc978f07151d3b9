//! The four workloads: how each builds its world from IDL text, and how
//! one closed-loop unit (one call, or one batch of calls) runs and is
//! checked. Spans are recorded here, around the calls into each layer.

use crate::gen::{write_ok, Inputs, Op, Sizes};
use crate::span;
use flexrpc_clock::SimClock;
use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::value::Value;
use flexrpc_engine::{expose_on_net, ClientInfo, Engine, SunRpcPipeline};
use flexrpc_kernel::{Kernel, NameMode};
use flexrpc_marshal::WireFormat;
use flexrpc_net::sunrpc::AcceptStat;
use flexrpc_net::SimNet;
use flexrpc_runtime::transport::{connect_kernel, serve_on_kernel};
use flexrpc_runtime::wire::{AnyReader, AnyWriter};
use flexrpc_runtime::{interp, CallControl, CallOptions, ClientStub, HookMap, ServerInterface};
use flexrpc_runtime::{RpcError, Transport};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per flush on `net_batched`.
const BATCH: usize = 16;
/// Reply-cache TTL on `amo_writes`. Short enough that entries expire
/// within a run, so the cache reaches a steady size early and the
/// per-write cost does not grow with run length. At 100 ms the live set
/// (about 6k entries on a 2-core box) sat at the hash table's 7168-entry
/// resize point, and runs that crossed it peaked 2 MB higher. 70 ms
/// keeps it near 4.6k, between the 3584- and 7168-entry resize points.
const AMO_TTL: Duration = Duration::from_millis(70);
const SERVICE: &str = "fileio";
const PROG: u32 = 0x2000_0101;
const VERS: u32 = 1;
/// Status a handler returns when its input fails the check (EINVAL).
const BAD_INPUT: u32 = 22;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallInline,
    BulkIpc,
    NetBatched,
    AmoWrites,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SmallInline, Workload::BulkIpc, Workload::NetBatched, Workload::AmoWrites];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallInline => "small_inline",
            Workload::BulkIpc => "bulk_ipc",
            Workload::NetBatched => "net_batched",
            Workload::AmoWrites => "amo_writes",
        }
    }

    pub fn sizes(self) -> Sizes {
        match self {
            Workload::SmallInline | Workload::AmoWrites => Sizes::Uniform { min: 16, max: 256 },
            Workload::BulkIpc => Sizes::Uniform { min: 4096, max: 64 * 1024 },
            Workload::NetBatched => Sizes::Mix { small: 64, large: 8192, one_in: 8 },
        }
    }

    /// Eighths of the op mix that are writes. Half, except on
    /// `amo_writes`: there a write costs about ten reads, and the median
    /// of an exactly even two-mode mix falls in the gap between the modes,
    /// where it swings with the slowest reads; five in eight keeps it
    /// inside the write mode.
    pub fn writes_in_8(self) -> usize {
        if self == Workload::AmoWrites {
            5
        } else {
            4
        }
    }

    /// Calls per closed-loop unit.
    pub fn unit_calls(self) -> usize {
        if self == Workload::NetBatched {
            BATCH
        } else {
            1
        }
    }
}

/// Wall seconds of each set-up step, from IDL text to ready-to-call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse: f64,
    pub compile: f64,
    pub serve: f64,
    pub connect: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.parse + self.compile + self.serve + self.connect
    }
}

fn timed<T>(name: u64, out: &mut f64, f: impl FnOnce() -> T) -> T {
    let g = span::enter(name, 0);
    let t0 = Instant::now();
    let r = f();
    *out = t0.elapsed().as_secs_f64();
    span::exit(g);
    r
}

/// One closed-loop unit's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub calls: u64,
    /// Calls that returned an error or failed a reply check.
    pub failed: u64,
    /// Payload bytes of the calls that succeeded.
    pub bytes: u64,
    /// Issue-to-reply time: of the call, or of the batch for every call
    /// in it (submit to flush return).
    pub latency_ns: u64,
    pub end: Instant,
}

/// Layer counters the program already exposes, read around a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub served: u64,
    pub inline: u64,
    pub steals: u64,
    pub peak_in_flight: u64,
    pub shed: u64,
    pub dispatch_errors: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rc_executions: u64,
    pub rc_suppressions: u64,
    pub rc_evictions: u64,
    pub rc_entries: u64,
    pub copy_bytes: u64,
    pub register_ops: u64,
    pub name_probes: u64,
    pub service_ns: u64,
    pub wire_ns: u64,
    pub net_bytes: u64,
}

impl Counters {
    fn add_engine(&mut self, engine: &Engine) {
        let s = engine.stats();
        self.served = s.calls_served;
        self.inline = s.inline_calls;
        self.steals = s.steals;
        self.peak_in_flight = s.peak_in_flight;
        self.shed = s.calls_shed;
        self.dispatch_errors = s.dispatch_errors;
        self.cache_hits = s.cache.hits;
        self.cache_misses = s.cache.misses;
        self.rc_executions = s.reply_cache.executions;
        self.rc_suppressions = s.reply_cache.suppressions;
        self.rc_evictions = s.reply_cache.evictions;
        self.rc_entries = s.reply_cache.entries;
    }
}

/// A built workload: a client bound to a ready server.
pub trait World {
    /// Runs one closed-loop unit of `ops` (one call, or one batch).
    fn unit(&mut self, ops: &[Op]) -> Unit;
    fn counters(&self) -> Counters;
    /// Checks on server-side state once the run is over.
    fn final_check(&self) -> Result<(), String>;
}

/// Registers the checking FileIO handlers: `read(count)` returns
/// `pattern[..count]`; `write(data)` verifies `data` and returns 0, or
/// [`BAD_INPUT`] (which surfaces at the client as `RpcError::Remote`).
fn register_handlers(srv: &mut ServerInterface, pattern: &Arc<[u8]>) -> Result<(), RpcError> {
    let p = Arc::clone(pattern);
    srv.on("read", move |call| {
        let g = span::enter_handler();
        let status = match call.u32("count") {
            Ok(n) if n as usize <= p.len() => {
                match call.set("return", Value::Bytes(p[..n as usize].to_vec())) {
                    Ok(()) => 0,
                    Err(_) => BAD_INPUT,
                }
            }
            _ => BAD_INPUT,
        };
        span::exit(g);
        status
    })?;
    let p = Arc::clone(pattern);
    srv.on("write", move |call| {
        let g = span::enter_handler();
        let ok = call.bytes("data").is_ok_and(|d| write_ok(&p, d));
        span::exit(g);
        if ok {
            0
        } else {
            BAD_INPUT
        }
    })
}

/// A pass-through transport that records a `transport` span around the
/// real one. Inserted only in the traced run.
struct TracedTransport(Box<dyn Transport>);

impl Transport for TracedTransport {
    fn call(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> flexrpc_runtime::Result<usize> {
        self.call_with(op, request, rights, reply, rights_out, &CallControl::none())
    }

    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        ctl: &CallControl,
    ) -> flexrpc_runtime::Result<usize> {
        let g = span::enter(span::TRANSPORT, op.index as u64);
        let r = self.0.call_with(op, request, rights, reply, rights_out, ctl);
        span::exit(g);
        r
    }

    fn clock(&self) -> Option<Arc<SimClock>> {
        self.0.clock()
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_idl() -> Result<flexrpc_core::ir::Module, String> {
    flexrpc_idl::corba::parse("fileio", flexrpc_pipes::FILEIO_IDL).map_err(|e| e.to_string())
}

fn compile(
    module: &flexrpc_core::ir::Module,
) -> Result<(InterfacePresentation, CompiledInterface), String> {
    let iface = module.interface("FileIO").ok_or("FileIO missing from the IDL")?;
    let pres = InterfacePresentation::default_for(module, iface).map_err(|e| e.to_string())?;
    let compiled = CompiledInterface::compile(module, iface, &pres).map_err(|e| e.to_string())?;
    Ok((pres, compiled))
}

/// Op indices and frame slot indices of FileIO.
#[derive(Debug, Clone, Copy)]
struct Slots {
    read_op: usize,
    write_op: usize,
    count: usize,
    ret: usize,
    data: usize,
}

impl Slots {
    fn of(compiled: &CompiledInterface) -> Result<Slots, String> {
        let slot = |op: &str, name: &str| {
            compiled
                .op(op)
                .and_then(|o| o.slots.slot(name))
                .map(|s| s.0)
                .ok_or(format!("FileIO {op} has no `{name}` slot"))
        };
        let op =
            |name: &str| compiled.op(name).map(|o| o.index).ok_or(format!("FileIO has no {name}"));
        Ok(Slots {
            read_op: op("read")?,
            write_op: op("write")?,
            count: slot("read", "count")?,
            ret: slot("read", "return")?,
            data: slot("write", "data")?,
        })
    }
}

/// Builds `workload`'s world and times its set-up steps. `traced` inserts
/// the pass-through transport.
pub fn build(
    workload: Workload,
    inputs: &Inputs,
    traced: bool,
) -> Result<(Box<dyn World>, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let module = timed(span::SETUP_PARSE, &mut t.parse, parse_idl)?;
    let world: Box<dyn World> = match workload {
        Workload::SmallInline | Workload::AmoWrites => {
            let amo = workload == Workload::AmoWrites;
            let (pres, compiled) = timed(span::SETUP_COMPILE, &mut t.compile, || compile(&module))?;
            let engine = timed(span::SETUP_SERVE, &mut t.serve, || {
                engine(&module, &pres, WireFormat::Cdr, amo, &inputs.pattern)
            })?;
            let stub = timed(span::SETUP_CONNECT, &mut t.connect, || {
                let conn = engine
                    .connect(SERVICE)
                    .client(ClientInfo::of(&pres))
                    .establish()
                    .map_err(|e| e.to_string())?;
                let mut stub =
                    ClientStub::new(compiled, WireFormat::Cdr, wrap(Box::new(conn), traced));
                if amo {
                    stub.enable_at_most_once();
                }
                Ok::<_, String>(stub)
            })?;
            let amo_clock = amo.then(|| (Arc::clone(engine.clock()), Instant::now()));
            Box::new(StubWorld::new(stub, inputs, amo_clock, Some(engine), None)?)
        }
        Workload::BulkIpc => {
            let (client, server) = timed(span::SETUP_COMPILE, &mut t.compile, || {
                Ok::<_, String>((compile(&module)?.1, compile(&module)?.1))
            })?;
            let (kernel, server_task, port) = timed(span::SETUP_SERVE, &mut t.serve, || {
                let kernel = Kernel::new();
                let task = kernel.create_task("server", 4096).map_err(|e| e.to_string())?;
                let mut srv = ServerInterface::new(server, WireFormat::Cdr);
                register_handlers(&mut srv, &inputs.pattern).map_err(|e| e.to_string())?;
                let srv = Arc::new(Mutex::new(srv));
                let port = serve_on_kernel(&kernel, task, srv, Trust::None, NameMode::Unique)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((kernel, task, port))
            })?;
            let stub = timed(span::SETUP_CONNECT, &mut t.connect, || {
                let task = kernel.create_task("client", 4096).map_err(|e| e.to_string())?;
                let send = kernel
                    .extract_send_right(server_task, port, task)
                    .map_err(|e| e.to_string())?;
                let sig = client.signature.hash();
                let conn = connect_kernel(&kernel, task, send, sig, Trust::None, NameMode::Unique)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>(ClientStub::new(
                    client,
                    WireFormat::Cdr,
                    wrap(Box::new(conn), traced),
                ))
            })?;
            Box::new(StubWorld::new(stub, inputs, None, None, Some(kernel))?)
        }
        Workload::NetBatched => {
            let (pres, client) = timed(span::SETUP_COMPILE, &mut t.compile, || compile(&module))?;
            let (engine, net, hosts) = timed(span::SETUP_SERVE, &mut t.serve, || {
                let engine = engine(&module, &pres, WireFormat::Xdr, false, &inputs.pattern)?;
                let net = SimNet::new();
                let server = net.add_host("server");
                let clients = [net.add_host("client-a"), net.add_host("client-b")];
                expose_on_net(&engine, &net, server, SERVICE, PROG, VERS, ClientInfo::of(&pres))
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((engine, net, (server, clients)))
            })?;
            let pipes = timed(span::SETUP_CONNECT, &mut t.connect, || {
                let (server, clients) = hosts;
                clients.map(|c| SunRpcPipeline::new(Arc::clone(&net), c, server, PROG, VERS))
            });
            Box::new(NetWorld::new(engine, net, pipes, client, inputs)?)
        }
    };
    Ok((world, t))
}

fn wrap(t: Box<dyn Transport>, traced: bool) -> Box<dyn Transport> {
    if traced {
        Box::new(TracedTransport(t))
    } else {
        t
    }
}

/// An engine with one worker per core serving the checking handlers.
fn engine(
    module: &flexrpc_core::ir::Module,
    pres: &InterfacePresentation,
    format: WireFormat,
    at_most_once: bool,
    pattern: &Arc<[u8]>,
) -> Result<Arc<Engine>, String> {
    // Queue depth covers a whole batch, so a flush never blocks on it.
    let mut builder = Engine::builder().workers(cores()).queue_depth(2 * BATCH);
    if at_most_once {
        builder = builder.at_most_once(AMO_TTL);
    }
    let engine = builder.build();
    let pattern = Arc::clone(pattern);
    engine
        .register_service(SERVICE, module.clone(), "FileIO", pres.clone(), format, move |srv| {
            register_handlers(srv, &pattern).expect("FileIO declares read and write");
        })
        .map_err(|e| e.to_string())?;
    Ok(engine)
}

/// A `ClientStub` workload: same-domain engine connection or kernel IPC.
struct StubWorld {
    stub: ClientStub,
    read: Vec<Value>,
    write: Vec<Value>,
    slots: Slots,
    read_opts: CallOptions,
    write_opts: CallOptions,
    pattern: Arc<[u8]>,
    payloads: Vec<Arc<[u8]>>,
    engine: Option<Arc<Engine>>,
    kernel: Option<Arc<Kernel>>,
    /// At-most-once: the engine clock and the wall origin it tracks.
    amo: Option<(Arc<SimClock>, Instant)>,
    tagged_writes: u64,
}

impl StubWorld {
    fn new(
        stub: ClientStub,
        inputs: &Inputs,
        amo: Option<(Arc<SimClock>, Instant)>,
        engine: Option<Arc<Engine>>,
        kernel: Option<Arc<Kernel>>,
    ) -> Result<StubWorld, String> {
        let slots = Slots::of(stub.compiled())?;
        let read = stub.new_frame("read").map_err(|e| e.to_string())?;
        let write = stub.new_frame("write").map_err(|e| e.to_string())?;
        // Under at-most-once only writes are tagged; reads opt out.
        let read_opts = if amo.is_some() {
            CallOptions::default().at_least_once()
        } else {
            CallOptions::default()
        };
        Ok(StubWorld {
            stub,
            read,
            write,
            slots,
            read_opts,
            write_opts: CallOptions::default(),
            pattern: Arc::clone(&inputs.pattern),
            payloads: inputs.payloads.clone(),
            engine,
            kernel,
            amo,
            tagged_writes: 0,
        })
    }
}

impl World for StubWorld {
    fn unit(&mut self, ops: &[Op]) -> Unit {
        if let Some((clock, origin)) = &self.amo {
            let wall = origin.elapsed().as_nanos() as u64;
            let now = clock.now_ns();
            if wall > now {
                clock.advance_ns(wall - now);
            }
        }
        let (ok, bytes, t0, end) = match ops[0] {
            Op::Read { count } => {
                self.read[self.slots.count] = Value::U32(count);
                let g = span::enter(span::CALL, 0);
                let t0 = Instant::now();
                let r = self.stub.call_with("read", &mut self.read, &self.read_opts);
                let end = Instant::now();
                span::exit(g);
                let want = &self.pattern[..count as usize];
                let got = self.read[self.slots.ret].window_of(self.stub.last_reply());
                (r.is_ok() && got == Some(want), count as u64, t0, end)
            }
            Op::Write { payload } => {
                let data = &self.payloads[payload];
                self.write[self.slots.data] = Value::Shared(Arc::clone(data));
                if self.amo.is_some() {
                    self.tagged_writes += 1;
                }
                let g = span::enter(span::CALL, 1);
                let t0 = Instant::now();
                let r = self.stub.call_with("write", &mut self.write, &self.write_opts);
                let end = Instant::now();
                span::exit(g);
                (r.is_ok(), data.len() as u64, t0, end)
            }
        };
        Unit {
            calls: 1,
            failed: u64::from(!ok),
            bytes: if ok { bytes } else { 0 },
            latency_ns: (end - t0).as_nanos() as u64,
            end,
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        if let Some(e) = &self.engine {
            c.add_engine(e);
        }
        if let Some(k) = &self.kernel {
            let s = k.stats().snapshot();
            c.copy_bytes = s.total_bytes_copied();
            c.register_ops = s.register_ops;
            c.name_probes = s.name_table_probes;
        }
        c
    }

    fn final_check(&self) -> Result<(), String> {
        if self.amo.is_none() {
            return Ok(());
        }
        let c = self.counters();
        if c.rc_executions != self.tagged_writes || c.rc_suppressions != 0 {
            return Err(format!(
                "reply cache: {} executions and {} suppressions for {} tagged writes",
                c.rc_executions, c.rc_suppressions, self.tagged_writes
            ));
        }
        Ok(())
    }
}

impl Drop for StubWorld {
    fn drop(&mut self) {
        if let Some(e) = &self.engine {
            e.shutdown();
        }
    }
}

/// Reply body length a FileIO call must come back with over XDR: the
/// status word, then for `read` the counted, 4-byte padded sequence.
fn xdr_reply_len(op: Op) -> usize {
    match op {
        Op::Read { count } => 8 + (count as usize).next_multiple_of(4),
        Op::Write { .. } => 4,
    }
}

/// `net_batched`: two client hosts alternating `SunRpcPipeline` flushes
/// into an engine exposed on the simulated network.
struct NetWorld {
    engine: Arc<Engine>,
    net: Arc<SimNet>,
    pipes: [SunRpcPipeline; 2],
    turn: usize,
    client: CompiledInterface,
    hooks: HookMap,
    read: Vec<Value>,
    write: Vec<Value>,
    slots: Slots,
    args: Vec<u8>,
    /// The ops of the batch in flight, in submit order.
    sent: Vec<Op>,
    pattern: Arc<[u8]>,
    payloads: Vec<Arc<[u8]>>,
}

impl NetWorld {
    fn new(
        engine: Arc<Engine>,
        net: Arc<SimNet>,
        pipes: [SunRpcPipeline; 2],
        client: CompiledInterface,
        inputs: &Inputs,
    ) -> Result<NetWorld, String> {
        let slots = Slots::of(&client)?;
        let frame = |op: &str| client.op(op).map(|o| o.slots.new_frame()).ok_or("missing op");
        Ok(NetWorld {
            read: frame("read")?,
            write: frame("write")?,
            engine,
            net,
            pipes,
            turn: 0,
            client,
            hooks: HookMap::new(),
            slots,
            args: Vec::new(),
            sent: Vec::with_capacity(BATCH),
            pattern: Arc::clone(&inputs.pattern),
            payloads: inputs.payloads.clone(),
        })
    }

    /// Marshals `op`'s arguments with the client's stub program and queues
    /// the call on `pipe`.
    fn submit(&mut self, op: Op, pipe: usize) -> Result<(), RpcError> {
        let (index, frame) = match op {
            Op::Read { count } => {
                self.read[self.slots.count] = Value::U32(count);
                (self.slots.read_op, &mut self.read)
            }
            Op::Write { payload } => {
                self.write[self.slots.data] = Value::Shared(Arc::clone(&self.payloads[payload]));
                (self.slots.write_op, &mut self.write)
            }
        };
        let cop = &self.client.ops[index];
        let mut w = AnyWriter::over(WireFormat::Xdr, std::mem::take(&mut self.args));
        let mut rights = Vec::new();
        interp::marshal(&cop.request_marshal, frame, &[], &mut w, &self.hooks, &mut rights)?;
        self.args = w.into_bytes();
        self.pipes[pipe]
            .submit_op(cop, &self.args)
            .map_err(|e| RpcError::Transport(e.to_string()))?;
        Ok(())
    }

    /// Checks one reply record against the call that produced it.
    fn check(&mut self, op: Op, stat: AcceptStat, body: &[u8]) -> bool {
        if stat != AcceptStat::Success || body.len() != xdr_reply_len(op) {
            return false;
        }
        let (index, frame) = match op {
            Op::Read { .. } => (self.slots.read_op, &mut self.read),
            Op::Write { .. } => (self.slots.write_op, &mut self.write),
        };
        let cop = &self.client.ops[index];
        let Ok(mut reader) = AnyReader::new(WireFormat::Xdr, body) else { return false };
        let decoded = interp::unmarshal(
            &cop.reply_unmarshal,
            frame,
            body,
            &mut reader,
            &self.hooks,
            &mut std::iter::empty(),
        );
        if decoded.is_err() || frame[cop.status_slot().0].as_u32() != Some(0) {
            return false;
        }
        match op {
            Op::Read { count } => {
                frame[self.slots.ret].window_of(body) == Some(&self.pattern[..count as usize])
            }
            Op::Write { .. } => true,
        }
    }
}

impl World for NetWorld {
    fn unit(&mut self, ops: &[Op]) -> Unit {
        let pipe = self.turn;
        self.turn = (self.turn + 1) % self.pipes.len();
        let batch = span::enter(span::BATCH, ops.len() as u64);
        let t0 = Instant::now();
        let enc = span::enter(span::ENCODE, ops.len() as u64);
        self.sent.clear();
        let mut failed = 0;
        for &op in ops {
            match self.submit(op, pipe) {
                Ok(()) => self.sent.push(op),
                Err(_) => failed += 1,
            }
        }
        span::exit(enc);
        let fl = span::enter(span::FLUSH, self.sent.len() as u64);
        let replies = self.pipes[pipe].flush();
        let end = Instant::now();
        span::exit(fl);
        let mut bytes = 0;
        match replies {
            Ok(replies) if replies.len() == self.sent.len() => {
                for (i, (stat, body)) in replies.iter().enumerate() {
                    let op = self.sent[i];
                    if self.check(op, *stat, body) {
                        bytes += match op {
                            Op::Read { count } => count as u64,
                            Op::Write { payload } => self.payloads[payload].len() as u64,
                        };
                    } else {
                        failed += 1;
                    }
                }
            }
            _ => failed = ops.len() as u64,
        }
        span::exit(batch);
        Unit {
            calls: ops.len() as u64,
            failed,
            bytes,
            latency_ns: (end - t0).as_nanos() as u64,
            end,
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_engine(&self.engine);
        let s = self.net.stats();
        c.service_ns = s.service_ns.get();
        c.net_bytes = s.bytes.get();
        c.wire_ns = self.net.wire_ns();
        c
    }

    fn final_check(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Drop for NetWorld {
    fn drop(&mut self) {
        self.engine.shutdown();
    }
}
