//! The framed wire protocol spoken between the TEE-side transport
//! ([`crate::TcpFleet`]) and remote worker processes (`dk_gpu_worker`).
//!
//! Everything a worker touches is already masked field data, so the
//! protocol carries plain `F_{2^25−39}` values — confidentiality comes
//! from DarKnight's encoding, not from the transport. What the framing
//! buys is *fault attribution*: a short read, a bad magic, or a version
//! skew is a typed [`std::io::Error`] the transport converts into
//! [`GpuError::WorkerLost`](crate::GpuError::WorkerLost) /
//! [`Protocol`](crate::GpuError::Protocol), never a process abort.
//!
//! ## Frame layout (all little-endian)
//!
//! ```text
//! magic   u32   0x444B_4E54  ("DKNT")
//! version u16   protocol version (1)
//! type    u16   message discriminant
//! len     u32   payload byte length
//! payload [u8; len]
//! ```
//!
//! ## Payload encodings
//!
//! * **Tensor**: `ndim: u32`, `dims: [u32; ndim]`, then one `u32` per
//!   element (field values are `< 2^25`).
//! * **Conv2dShape**: nine `u32`s — in/out channels, kernel, stride,
//!   padding (pairs), groups.
//! * **LinearJob**: one tag byte (variant, 0–7) followed by the
//!   variant's fields in declaration order.
//!
//! ## Allocation rule
//!
//! A peer's claims size nothing; only bytes in hand do. The payload
//! buffer grows at most one fixed chunk (1 MiB) past what has been
//! received, and a tensor or β row takes its `4·n` bytes from the
//! payload before its vector is sized — so a 20-byte frame claiming
//! 2^26 elements, or a bare header claiming [`MAX_PAYLOAD`], is a typed
//! error after at most one chunk, not a half-gigabyte request inside an
//! enclave sized in megabytes.
//!
//! ## Buffers
//!
//! A frame costs one bulk pack, one bulk unpack and its socket calls;
//! nothing on a warm connection touches the allocator. Each end keeps
//! its buffers:
//!
//! * **Frames out** are encoded into one buffer per connection
//!   ([`encode_run`], [`encode_store`], [`encode_msg`] replace its
//!   contents): `TcpFleet` keeps one per remote worker, the worker's
//!   connection loop one for its replies.
//! * **Frames in** are read into one payload buffer per connection and
//!   decoded by [`read_msg_into`], whose tensors, their shapes and the
//!   `Arc` around a job's shared operand come out of a caller-owned
//!   [`Workspace`]. `TcpFleet` owns the TEE end's pool and
//!   `GpuExec::recycle_outputs` refills it with the decoded `Output`
//!   tensors; the worker's connection loop owns the other, refilled by
//!   [`LinearJob::recycle_decoded_into`] once a job has run, by each
//!   `Release`, and through [`recycle_msg`] by any message it refuses.
//! * A frame rejected part-way gives back whatever it had decoded, so a
//!   hostile peer neither leaks nor drains the pool.
//!
//! None of this shows on the wire: the bytes, and [`VERSION`], are
//! those of the one-value-at-a-time codec. A tensor's values are
//! unpacked by [`dk_field::unpack_lanes`] in one branch-free pass that
//! keeps a single "≥ p" flag; only a flagged tensor is scanned a second
//! time, there, for its first out-of-range value, which
//! `get_field_values` reports as the same `field value {raw} out of
//! range` error the old codec returned.
//!
//! The protocol is deliberately session-free beyond the `Hello`
//! handshake: each connection serves one logical worker, messages are
//! answered in order, and the TEE side never pipelines more than one
//! virtual batch per worker connection without reading the replies back
//! (per-worker FIFO, same as the in-process dispatcher).

use crate::job::LinearJob;
use dk_field::F25;
use dk_linalg::{Conv2dShape, Tensor, Workspace};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Frame magic: `"DKNT"`.
pub const MAGIC: u32 = 0x444B_4E54;
/// Protocol version.
pub const VERSION: u16 = 1;
/// Upper bound on a single payload (guards against garbage lengths from
/// a malicious or confused peer before any allocation happens).
pub const MAX_PAYLOAD: u32 = 1 << 28;
/// How far ahead of the bytes actually received the payload buffer may
/// be sized (see the module docs' allocation rule). An honest frame no
/// larger than this is read into one exact allocation.
const READ_CHUNK: usize = 1 << 20;
/// Largest tensor rank a frame may declare.
const MAX_RANK: usize = 8;

/// A message on the wire. The `type` field of the frame header is the
/// variant's [`WireMsg::msg_type`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// TEE → worker, once per connection: claims a worker identity.
    Hello {
        /// Worker id within the fleet.
        worker_id: u64,
        /// RNG seed for the remote worker's behaviour stream.
        seed: u64,
        /// Modeled latency `(base_ns, ns_per_kmac)`; `(0, 0)` = none.
        latency: (u64, u64),
    },
    /// Worker → TEE: handshake accepted.
    HelloAck,
    /// TEE → worker: execute one job and reply with `Output` or `Fail`.
    Run {
        /// The job to execute.
        job: LinearJob,
    },
    /// Worker → TEE: the job's result.
    Output {
        /// The computed tensor.
        tensor: Tensor<F25>,
    },
    /// TEE → worker: store a forward encoding under a context id.
    Store {
        /// Context id (`batch << 32 | layer ordinal`).
        ctx_id: u64,
        /// The encoded input.
        tensor: Tensor<F25>,
    },
    /// TEE → worker: release a stored context.
    Release {
        /// Context id to drop.
        ctx_id: u64,
    },
    /// Worker → TEE: the job could not be executed (e.g. a `*Stored`
    /// job referencing an encoding the worker does not hold).
    Fail {
        /// Human-readable reason.
        message: String,
    },
    /// TEE → worker: shut the worker process down.
    Shutdown,
}

impl WireMsg {
    /// The frame-header discriminant for this message.
    pub fn msg_type(&self) -> u16 {
        match self {
            WireMsg::Hello { .. } => 1,
            WireMsg::HelloAck => 2,
            WireMsg::Run { .. } => TYPE_RUN,
            WireMsg::Output { .. } => 4,
            WireMsg::Store { .. } => TYPE_STORE,
            WireMsg::Release { .. } => 6,
            WireMsg::Fail { .. } => 7,
            WireMsg::Shutdown => 8,
        }
    }
}

fn bad(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

// ---- primitive writers/readers over a byte buffer ----

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad("length overflow"))?;
        if end > self.buf.len() {
            return Err(bad("payload truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn finish(self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad("trailing bytes in payload"));
        }
        Ok(())
    }
}

// ---- composite encodings ----

/// Encoded size of a tensor.
fn tensor_bytes(t: &Tensor<F25>) -> usize {
    4 * (1 + t.ndim() + t.len())
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor<F25>) {
    buf.reserve(tensor_bytes(t));
    put_u32(buf, t.ndim() as u32);
    for &d in t.shape() {
        put_u32(buf, d as u32);
    }
    dk_field::pack_lanes(t.as_slice(), buf);
}

fn get_tensor(c: &mut Cursor, ws: &mut Workspace) -> io::Result<Tensor<F25>> {
    let ndim = c.u32()? as usize;
    if ndim > MAX_RANK {
        return Err(bad(format!("tensor rank {ndim} too large")));
    }
    let mut dims = [0usize; MAX_RANK];
    let mut len = 1usize;
    for d in &mut dims[..ndim] {
        *d = c.u32()? as usize;
        len = len.checked_mul(*d).ok_or_else(|| bad("tensor size overflow"))?;
    }
    let data = get_field_values(c, len, ws)?;
    Ok(Tensor::from_parts(ws.take_shape(&dims[..ndim]), data))
}

/// `n` field values, one `u32` each, into a buffer from `ws`. The `4·n`
/// bytes are taken from the cursor **before** the buffer is sized, so a
/// claimed count the payload does not back is "payload truncated" and
/// takes nothing. One [`dk_field::unpack_lanes`] pass writes and checks
/// every value; a rejected tensor's buffer goes straight back.
fn get_field_values(c: &mut Cursor, n: usize, ws: &mut Workspace) -> io::Result<Vec<F25>> {
    let bytes = c.take(n.checked_mul(4).ok_or_else(|| bad("length overflow"))?)?;
    let mut vals = ws.take_cleared::<F25>(n);
    if let Err(raw) = dk_field::unpack_lanes(bytes, &mut vals) {
        ws.give(vals);
        return Err(bad(format!("field value {raw} out of range")));
    }
    Ok(vals)
}

fn put_shape(buf: &mut Vec<u8>, s: &Conv2dShape) {
    for v in [
        s.in_channels,
        s.out_channels,
        s.kernel.0,
        s.kernel.1,
        s.stride.0,
        s.stride.1,
        s.padding.0,
        s.padding.1,
        s.groups,
    ] {
        put_u32(buf, v as u32);
    }
}

fn get_shape(c: &mut Cursor) -> io::Result<Conv2dShape> {
    let mut v = [0usize; 9];
    for slot in &mut v {
        *slot = c.u32()? as usize;
    }
    let [ic, oc, kh, kw, sh, sw, ph, pw, g] = v;
    // Validate what Conv2dShape::new would assert, but as wire errors.
    if ic == 0 || oc == 0 || g == 0 || kh == 0 || kw == 0 || sh == 0 || sw == 0 {
        return Err(bad("degenerate conv shape"));
    }
    if ic % g != 0 || oc % g != 0 {
        return Err(bad("conv groups must divide channel counts"));
    }
    Ok(Conv2dShape::new(ic, oc, (kh, kw), (sh, sw), (ph, pw), g))
}

fn put_beta(buf: &mut Vec<u8>, beta: &[F25]) {
    buf.reserve(4 * (1 + beta.len()));
    put_u32(buf, beta.len() as u32);
    dk_field::pack_lanes(beta, buf);
}

fn get_beta(c: &mut Cursor, ws: &mut Workspace) -> io::Result<Vec<F25>> {
    let n = c.u32()? as usize;
    get_field_values(c, n, ws)
}

/// A job's tag and two tensor operands, with room for them and the
/// fixed-size fields after them (≤ 44 bytes) reserved at once.
fn put_operands(buf: &mut Vec<u8>, tag: u8, a: &Tensor<F25>, b: &Tensor<F25>) {
    buf.reserve(1 + tensor_bytes(a) + tensor_bytes(b) + 44);
    buf.push(tag);
    put_tensor(buf, a);
    put_tensor(buf, b);
}

fn put_job(buf: &mut Vec<u8>, job: &LinearJob) {
    match job {
        LinearJob::ConvForward { weights, x, shape } => {
            put_operands(buf, 0, weights, x);
            put_shape(buf, shape);
        }
        LinearJob::ConvWeightGrad { delta, x, shape } => {
            put_operands(buf, 1, delta, x);
            put_shape(buf, shape);
        }
        LinearJob::ConvBackwardData { weights, delta, shape, input_hw } => {
            put_operands(buf, 2, weights, delta);
            put_shape(buf, shape);
            put_u32(buf, input_hw.0 as u32);
            put_u32(buf, input_hw.1 as u32);
        }
        LinearJob::DenseForward { weights, x } => put_operands(buf, 3, weights, x),
        LinearJob::DenseWeightGrad { delta, x } => put_operands(buf, 4, delta, x),
        LinearJob::DenseBackwardData { weights, delta } => put_operands(buf, 5, weights, delta),
        LinearJob::ConvWeightGradStored { delta_batch, beta, layer_id, shape } => {
            buf.push(6);
            put_tensor(buf, delta_batch);
            put_beta(buf, beta);
            put_u64(buf, *layer_id);
            put_shape(buf, shape);
        }
        LinearJob::DenseWeightGradStored { delta_batch, beta, layer_id } => {
            buf.push(7);
            put_tensor(buf, delta_batch);
            put_beta(buf, beta);
            put_u64(buf, *layer_id);
        }
    }
}

/// A `Run`'s operands while the rest of its payload is parsed: every
/// job is a tensor, then a tensor (tags 0–5) or a β row (6–7), then
/// fixed-size fields. Whatever is still here when it drops — all of it,
/// if a later field is rejected — goes back to the pool.
struct Operands<'w> {
    ws: &'w mut Workspace,
    first: Tensor<F25>,
    second: Tensor<F25>,
    beta: Vec<F25>,
}

impl Operands<'_> {
    fn first(&mut self) -> Tensor<F25> {
        std::mem::take(&mut self.first)
    }

    /// The first operand as the job's shared one, its `Arc` pooled too.
    fn shared(&mut self) -> Arc<Tensor<F25>> {
        let t = self.first();
        self.ws.share(t)
    }

    fn second(&mut self) -> Tensor<F25> {
        std::mem::take(&mut self.second)
    }

    fn beta(&mut self) -> Vec<F25> {
        std::mem::take(&mut self.beta)
    }
}

impl Drop for Operands<'_> {
    fn drop(&mut self) {
        let (first, second, beta) = (self.first(), self.second(), self.beta());
        self.ws.give_tensor(first);
        self.ws.give_tensor(second);
        self.ws.give(beta);
    }
}

fn get_job(c: &mut Cursor, ws: &mut Workspace) -> io::Result<LinearJob> {
    let tag = c.u8()?;
    if tag > 7 {
        return Err(bad(format!("unknown job tag {tag}")));
    }
    let first = get_tensor(c, ws)?;
    let mut ops = Operands { ws, first, second: Tensor::default(), beta: Vec::new() };
    if tag < 6 {
        ops.second = get_tensor(c, ops.ws)?;
    } else {
        ops.beta = get_beta(c, ops.ws)?;
    }
    Ok(match tag {
        0 => {
            let shape = get_shape(c)?;
            LinearJob::ConvForward { weights: ops.shared(), x: ops.second(), shape }
        }
        1 => {
            let shape = get_shape(c)?;
            LinearJob::ConvWeightGrad { delta: ops.first(), x: ops.second(), shape }
        }
        2 => {
            let shape = get_shape(c)?;
            let input_hw = (c.u32()? as usize, c.u32()? as usize);
            let (weights, delta) = (ops.shared(), ops.second());
            LinearJob::ConvBackwardData { weights, delta, shape, input_hw }
        }
        3 => LinearJob::DenseForward { weights: ops.shared(), x: ops.second() },
        4 => LinearJob::DenseWeightGrad { delta: ops.first(), x: ops.second() },
        5 => LinearJob::DenseBackwardData { weights: ops.shared(), delta: ops.second() },
        6 => {
            let layer_id = c.u64()?;
            let shape = get_shape(c)?;
            LinearJob::ConvWeightGradStored {
                delta_batch: ops.shared(),
                beta: ops.beta(),
                layer_id,
                shape,
            }
        }
        // 7: the tag check above leaves no other.
        _ => {
            let layer_id = c.u64()?;
            let (delta_batch, beta) = (ops.shared(), ops.beta());
            LinearJob::DenseWeightGradStored { delta_batch, beta, layer_id }
        }
    })
}

const HEADER_LEN: usize = 12;
const TYPE_RUN: u16 = 3;
const TYPE_STORE: u16 = 5;

/// Replaces `buf` with one complete frame: the header, then whatever
/// `payload` appends. Encoding into a caller-owned buffer is what lets
/// a transport reuse one allocation per connection and put each frame
/// on the socket with a single write.
fn encode_frame(buf: &mut Vec<u8>, msg_type: u16, payload: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&msg_type.to_le_bytes());
    put_u32(buf, 0); // payload length, patched below
    payload(buf);
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

/// Encodes `msg` as one frame into `buf` (previous contents replaced).
pub fn encode_msg(buf: &mut Vec<u8>, msg: &WireMsg) {
    encode_frame(buf, msg.msg_type(), |buf| match msg {
        WireMsg::Hello { worker_id, seed, latency } => {
            put_u64(buf, *worker_id);
            put_u64(buf, *seed);
            put_u64(buf, latency.0);
            put_u64(buf, latency.1);
        }
        WireMsg::HelloAck | WireMsg::Shutdown => {}
        WireMsg::Run { job } => put_job(buf, job),
        WireMsg::Output { tensor } => put_tensor(buf, tensor),
        WireMsg::Store { ctx_id, tensor } => {
            put_u64(buf, *ctx_id);
            put_tensor(buf, tensor);
        }
        WireMsg::Release { ctx_id } => put_u64(buf, *ctx_id),
        WireMsg::Fail { message } => {
            put_u32(buf, message.len() as u32);
            buf.extend_from_slice(message.as_bytes());
        }
    });
}

/// Encodes a [`WireMsg::Run`] frame straight from a borrowed job — the
/// hot TEE→worker message, so the transport never clones the job (and
/// the encoding tensor inside it) just to serialize it.
pub fn encode_run(buf: &mut Vec<u8>, job: &LinearJob) {
    encode_frame(buf, TYPE_RUN, |buf| put_job(buf, job));
}

/// Encodes a [`WireMsg::Store`] frame from a borrowed tensor.
pub fn encode_store(buf: &mut Vec<u8>, ctx_id: u64, tensor: &Tensor<F25>) {
    encode_frame(buf, TYPE_STORE, |buf| {
        put_u64(buf, ctx_id);
        put_tensor(buf, tensor);
    });
}

/// Gives a decoded message's buffers back to the pool
/// [`read_msg_into`] drew them from (see the module docs' Buffers
/// section); a message without any is simply dropped.
pub fn recycle_msg(msg: WireMsg, ws: &mut Workspace) {
    match msg {
        WireMsg::Run { job } => job.recycle_decoded_into(ws),
        WireMsg::Output { tensor } | WireMsg::Store { tensor, .. } => ws.give_tensor(tensor),
        _ => {}
    }
}

fn decode_payload(msg_type: u16, payload: &[u8], ws: &mut Workspace) -> io::Result<WireMsg> {
    let mut c = Cursor::new(payload);
    let msg = match msg_type {
        1 => WireMsg::Hello {
            worker_id: c.u64()?,
            seed: c.u64()?,
            latency: (c.u64()?, c.u64()?),
        },
        2 => WireMsg::HelloAck,
        3 => WireMsg::Run { job: get_job(&mut c, ws)? },
        4 => WireMsg::Output { tensor: get_tensor(&mut c, ws)? },
        5 => WireMsg::Store { ctx_id: c.u64()?, tensor: get_tensor(&mut c, ws)? },
        6 => WireMsg::Release { ctx_id: c.u64()? },
        7 => {
            let n = c.u32()? as usize;
            let bytes = c.take(n)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| bad("fail message is not utf-8"))?
                .to_string();
            WireMsg::Fail { message }
        }
        8 => WireMsg::Shutdown,
        t => return Err(bad(format!("unknown message type {t}"))),
    };
    if let Err(e) = c.finish() {
        recycle_msg(msg, ws);
        return Err(e);
    }
    Ok(msg)
}

/// Writes one framed message.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_msg<W: Write>(w: &mut W, msg: &WireMsg) -> io::Result<()> {
    write_msg_counted(w, msg).map(|_| ())
}

/// Writes one framed message and reports the frame size (header +
/// payload) in bytes — the transport's byte accounting hook.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_msg_counted<W: Write>(w: &mut W, msg: &WireMsg) -> io::Result<usize> {
    let mut frame = Vec::new();
    encode_msg(&mut frame, msg);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads one framed message.
///
/// # Errors
///
/// I/O errors from the reader; `InvalidData` for bad magic, version
/// skew, oversized payloads, or malformed payload contents.
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<WireMsg> {
    read_msg_counted(r).map(|(msg, _)| msg)
}

/// Reads one framed message and reports the frame size (header +
/// payload) in bytes.
///
/// # Errors
///
/// Same conditions as [`read_msg`].
pub fn read_msg_counted<R: Read>(r: &mut R) -> io::Result<(WireMsg, usize)> {
    read_msg_into(r, &mut Vec::new(), &mut Workspace::new())
}

/// [`read_msg_counted`] into buffers the caller keeps: the payload is
/// read into the front of `payload`, a scratch buffer that keeps its
/// largest length, and the message's tensors come out of `ws`. Give
/// them back with [`recycle_msg`] (or the recycle path of whatever
/// consumed them) and a warm connection reads every frame without
/// allocating or zeroing anything. On an error every buffer taken from
/// `ws` has been given back.
///
/// # Errors
///
/// Same conditions as [`read_msg`].
pub fn read_msg_into<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
    ws: &mut Workspace,
) -> io::Result<(WireMsg, usize)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let [m0, m1, m2, m3, v0, v1, t0, t1, l0, l1, l2, l3] = header;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != MAGIC {
        return Err(bad(format!("bad frame magic {magic:#010x}")));
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != VERSION {
        return Err(bad(format!("protocol version {version} (want {VERSION})")));
    }
    let msg_type = u16::from_le_bytes([t0, t1]);
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_PAYLOAD {
        return Err(bad(format!("payload of {len} bytes exceeds cap")));
    }
    // The header's length is a claim until the bytes arrive: grow the
    // buffer one chunk at a time, each chunk reserved only once every
    // byte before it has been received.
    let len = len as usize;
    let mut have = 0;
    while have < len {
        let step = (len - have).min(READ_CHUNK);
        // The buffer keeps its high-water length, so a warm connection
        // zeroes nothing and reads each chunk with one `read_exact`.
        if payload.len() < have + step {
            payload.reserve_exact(have + step - payload.len());
            payload.resize(have + step, 0);
        }
        r.read_exact(&mut payload[have..have + step])?;
        have += step;
    }
    decode_payload(msg_type, &payload[..len], ws).map(|msg| (msg, HEADER_LEN + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &WireMsg) -> WireMsg {
        let mut buf = Vec::new();
        write_msg(&mut buf, msg).unwrap();
        let got = read_msg(&mut &buf[..]).unwrap();
        assert_eq!(&got, msg);
        got
    }

    fn tensor(shape: &[usize], scale: u64) -> Tensor<F25> {
        Tensor::from_fn(shape, |i| F25::new((i as u64 * scale + 7) % dk_field::P25))
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(&WireMsg::Hello { worker_id: 3, seed: 42, latency: (1000, 25) });
        roundtrip(&WireMsg::HelloAck);
        roundtrip(&WireMsg::Release { ctx_id: (9 << 32) | 4 });
        roundtrip(&WireMsg::Fail { message: "no stored encoding for layer 7".into() });
        roundtrip(&WireMsg::Shutdown);
    }

    #[test]
    fn tensors_and_store_roundtrip() {
        roundtrip(&WireMsg::Output { tensor: tensor(&[2, 3, 4], 13) });
        roundtrip(&WireMsg::Store { ctx_id: 88, tensor: tensor(&[1, 5], 3) });
        // Scalar (rank-0) tensors survive too.
        roundtrip(&WireMsg::Output { tensor: Tensor::from_vec(&[], vec![F25::new(5)]) });
    }

    #[test]
    fn every_job_variant_roundtrips() {
        let shape = Conv2dShape::simple(2, 4, 3, 1, 1);
        let jobs = vec![
            LinearJob::ConvForward {
                weights: Arc::new(tensor(&shape.weight_shape(), 5)),
                x: tensor(&[1, 2, 4, 4], 3),
                shape,
            },
            LinearJob::ConvWeightGrad {
                delta: tensor(&[1, 4, 4, 4], 2),
                x: tensor(&[1, 2, 4, 4], 3),
                shape,
            },
            LinearJob::ConvBackwardData {
                weights: Arc::new(tensor(&shape.weight_shape(), 5)),
                delta: tensor(&[2, 4, 4, 4], 2),
                shape,
                input_hw: (4, 4),
            },
            LinearJob::DenseForward {
                weights: Arc::new(tensor(&[4, 6], 7)),
                x: tensor(&[1, 6], 2),
            },
            LinearJob::DenseWeightGrad { delta: tensor(&[1, 4], 9), x: tensor(&[1, 6], 2) },
            LinearJob::DenseBackwardData {
                weights: Arc::new(tensor(&[4, 6], 7)),
                delta: tensor(&[2, 4], 9),
            },
            LinearJob::ConvWeightGradStored {
                delta_batch: Arc::new(tensor(&[2, 4, 4, 4], 2)),
                beta: vec![F25::new(3), F25::new(11)],
                layer_id: (7 << 32) | 2,
                shape,
            },
            LinearJob::DenseWeightGradStored {
                delta_batch: Arc::new(tensor(&[2, 4], 9)),
                beta: vec![F25::new(3), F25::new(11)],
                layer_id: 5,
            },
        ];
        for job in jobs {
            let mut buf = Vec::new();
            write_msg(&mut buf, &WireMsg::Run { job: job.clone() }).unwrap();
            let got = read_msg(&mut &buf[..]).unwrap();
            let WireMsg::Run { job: decoded } = got else { panic!("wrong msg type") };
            // LinearJob has no PartialEq (Arc'd weights); compare via
            // execution where possible, fields otherwise.
            match (&job, &decoded) {
                (LinearJob::ConvWeightGradStored { layer_id: a, beta: ba, .. },
                 LinearJob::ConvWeightGradStored { layer_id: b, beta: bb, .. })
                | (LinearJob::DenseWeightGradStored { layer_id: a, beta: ba, .. },
                   LinearJob::DenseWeightGradStored { layer_id: b, beta: bb, .. }) => {
                    assert_eq!(a, b);
                    assert_eq!(ba, bb);
                }
                _ => assert_eq!(job.execute(), decoded.execute()),
            }
        }
    }

    #[test]
    fn borrowed_encoders_write_the_same_frames() {
        let job = LinearJob::DenseForward {
            weights: Arc::new(tensor(&[4, 6], 7)),
            x: tensor(&[1, 6], 2),
        };
        let (mut owned, mut borrowed) = (Vec::new(), vec![0xAAu8; 3]);
        write_msg(&mut owned, &WireMsg::Run { job: job.clone() }).unwrap();
        encode_run(&mut borrowed, &job);
        assert_eq!(owned, borrowed, "encode_run must replace the buffer with the Run frame");
        let t = tensor(&[1, 5], 3);
        owned.clear();
        write_msg(&mut owned, &WireMsg::Store { ctx_id: 88, tensor: t.clone() }).unwrap();
        encode_store(&mut borrowed, 88, &t);
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn corrupted_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &WireMsg::Release { ctx_id: 1 }).unwrap();
        // Bad magic.
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xFF;
        assert!(read_msg(&mut &bad_magic[..]).is_err());
        // Version skew.
        let mut bad_ver = buf.clone();
        bad_ver[4] = 99;
        assert!(read_msg(&mut &bad_ver[..]).is_err());
        // Truncated payload.
        let short = &buf[..buf.len() - 2];
        assert!(read_msg(&mut &short[..]).is_err());
        // Unknown message type.
        let mut bad_type = buf.clone();
        bad_type[6] = 0xEE;
        assert!(read_msg(&mut &bad_type[..]).is_err());
        // Trailing garbage inside the declared payload.
        let mut padded = Vec::new();
        write_msg(&mut padded, &WireMsg::HelloAck).unwrap();
        padded[8] = 4; // claim 4 payload bytes
        padded.extend_from_slice(&[0, 0, 0, 0]);
        assert!(read_msg(&mut &padded[..]).is_err());
    }

    #[test]
    fn out_of_range_field_values_rejected() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &WireMsg::Output { tensor: tensor(&[2], 1) }).unwrap();
        // Overwrite the first element with a value >= P25.
        let elt_off = buf.len() - 8;
        buf[elt_off..elt_off + 4].copy_from_slice(&(dk_field::P25 as u32).to_le_bytes());
        assert!(read_msg(&mut &buf[..]).is_err());
    }
}
