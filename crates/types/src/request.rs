//! In-flight memory request and response records.
//!
//! These are the units the host controller, links, and vault controllers
//! pass around. A [`MemoryRequest`] is identified by a globally unique
//! [`RequestId`] (for statistics) and a per-port [`Tag`] (the GUPS read tag
//! pool has 64 entries per port, so tags are small integers that get
//! recycled when a response retires).

use std::fmt;

use crate::address::{Address, CubeId};
use crate::packet::{OpKind, RequestSize, TransactionSizes};
use crate::tenant::TenantTag;
use crate::time::Time;

/// Identifies one of the GUPS ports on the FPGA (nine usable ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(u8);

impl PortId {
    /// Creates a port id.
    pub const fn new(index: u8) -> Self {
        PortId(index)
    }

    /// The port index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// A per-port read tag, drawn from the port's tag pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag(u16);

impl Tag {
    /// Creates a tag.
    pub const fn new(value: u16) -> Self {
        Tag(value)
    }

    /// The tag value.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// A globally unique, monotonically increasing request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id from a raw sequence number.
    pub const fn new(seq: u64) -> Self {
        RequestId(seq)
    }

    /// The raw sequence number.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The next id in sequence.
    pub const fn next(self) -> RequestId {
        RequestId(self.0 + 1)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// One memory operation travelling from a GUPS port toward the cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRequest {
    /// Globally unique identifier.
    pub id: RequestId,
    /// Issuing port.
    pub port: PortId,
    /// Per-port tag (reads hold a tag pool entry until the response
    /// arrives).
    pub tag: Tag,
    /// Read or write.
    pub op: OpKind,
    /// Payload size.
    pub size: RequestSize,
    /// Target cube — the CUB routing field. Cube 0 in single-cube systems;
    /// in a chain, intermediate cubes forward mismatching requests toward
    /// this cube over their pass-through links.
    pub cube: CubeId,
    /// Target address within the owning cube (after cube sharding and
    /// mask/anti-mask application).
    pub addr: Address,
    /// Instant the port submitted the request to the HMC controller —
    /// the paper's latency measurements start here.
    pub issued_at: Time,
    /// Generator token standing in for the payload contents: writes carry
    /// the token into the cube's backing store, reads carry zero. Used by
    /// the stream-GUPS data-integrity check.
    pub data_token: u64,
    /// Owning tenant stream and priority class. [`TenantTag::NONE`] for
    /// closed-loop (GUPS) traffic; set by the open-loop arrival frontend.
    pub tenant: TenantTag,
}

impl MemoryRequest {
    /// Table II packet sizes for this request.
    pub fn sizes(&self) -> TransactionSizes {
        TransactionSizes::of(self.op, self.size)
    }

    /// The trace identifier the observability layer files lifecycle spans
    /// under — the globally unique request sequence number.
    pub const fn trace_id(&self) -> crate::trace::TraceId {
        self.id.value()
    }

    /// The response to this request, completed at `completed_at` and
    /// carrying `data_token`.
    #[inline]
    pub const fn respond(&self, completed_at: Time, data_token: u64) -> MemoryResponse {
        MemoryResponse {
            id: self.id,
            port: self.port,
            tag: self.tag,
            op: self.op,
            size: self.size,
            cube: self.cube,
            addr: self.addr,
            issued_at: self.issued_at,
            completed_at,
            data_token,
            tenant: self.tenant,
        }
    }
}

impl fmt::Display for MemoryRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} @ {}",
            self.id, self.port, self.op, self.size, self.addr
        )
    }
}

/// The response to a [`MemoryRequest`], observed back at the issuing port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryResponse {
    /// Identifier of the request this answers.
    pub id: RequestId,
    /// Issuing port the response returns to.
    pub port: PortId,
    /// Tag being released back to the pool.
    pub tag: Tag,
    /// Operation type.
    pub op: OpKind,
    /// Payload size of the original request.
    pub size: RequestSize,
    /// Cube that served the request (echoed CUB field, used to route the
    /// response back through the chain and by write-back address reuse).
    pub cube: CubeId,
    /// Address of the original request (real responses are tag-matched;
    /// the host controller keeps the per-tag address table this models).
    pub addr: Address,
    /// Instant the original request was submitted.
    pub issued_at: Time,
    /// Instant the response reached the port's monitoring unit.
    pub completed_at: Time,
    /// For reads, the token read back from the backing store (zero for
    /// never-written locations); for writes, zero.
    pub data_token: u64,
    /// Tenant tag echoed from the original request, so per-tenant SLO
    /// accounting happens at the completion site without a lookup.
    pub tenant: TenantTag,
}

impl MemoryResponse {
    /// Round-trip latency as the GUPS monitoring unit measures it.
    pub fn latency(&self) -> crate::time::TimeDelta {
        self.completed_at.since(self.issued_at)
    }

    /// The trace identifier of the request this response answers.
    pub const fn trace_id(&self) -> crate::trace::TraceId {
        self.id.value()
    }
}

impl fmt::Display for MemoryResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} done in {}", self.id, self.latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    fn request() -> MemoryRequest {
        MemoryRequest {
            id: RequestId::new(7),
            port: PortId::new(2),
            tag: Tag::new(5),
            op: OpKind::Read,
            size: RequestSize::new(64).unwrap(),
            cube: CubeId::new(0),
            addr: Address::new(0x80),
            issued_at: Time::from_ps(1_000),
            data_token: 0,
            tenant: TenantTag::NONE,
        }
    }

    #[test]
    fn request_sizes_follow_table_2() {
        let r = request();
        assert_eq!(r.sizes().request_flits().count(), 1);
        assert_eq!(r.sizes().response_flits().count(), 5);
    }

    #[test]
    fn response_latency() {
        let r = request();
        let resp = MemoryResponse {
            id: r.id,
            port: r.port,
            tag: r.tag,
            op: r.op,
            size: r.size,
            cube: r.cube,
            addr: r.addr,
            issued_at: r.issued_at,
            completed_at: r.issued_at + TimeDelta::from_ns(700),
            data_token: 0,
            tenant: TenantTag::NONE,
        };
        assert_eq!(resp.latency().as_ns_f64(), 700.0);
    }

    #[test]
    fn request_id_sequencing() {
        let id = RequestId::new(0);
        assert_eq!(id.next().value(), 1);
        assert!(id < id.next());
    }

    #[test]
    fn display_impls() {
        let r = request();
        assert!(format!("{r}").contains("req#7"));
        assert!(format!("{}", PortId::new(3)).contains("3"));
        assert!(format!("{}", Tag::new(9)).contains("9"));
        let resp = MemoryResponse {
            id: r.id,
            port: r.port,
            tag: r.tag,
            op: r.op,
            size: r.size,
            cube: r.cube,
            addr: r.addr,
            issued_at: r.issued_at,
            completed_at: r.issued_at + TimeDelta::from_ns(1),
            data_token: 0,
            tenant: TenantTag::NONE,
        };
        assert!(format!("{resp}").contains("done"));
    }
}
