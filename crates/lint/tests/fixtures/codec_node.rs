// Fixture standing in for `crates/storage/src/node.rs`: the protocol
// enums plus codec functions. `is_idempotent` deliberately omits
// `Probe`, which the codec-exhaustive rule must report.

pub enum Request {
    Read { stripe: u64 },
    Swap { stripe: u64, value: Vec<u8> },
    Probe { stripe: u64 },
}

pub enum Reply {
    Read(Vec<u8>),
    Ack,
}

impl Request {
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::Swap { .. } => false,
            Request::Read { .. } => true,
            // missing: Request::Probe
        }
    }

    pub fn writes_medium(&self) -> bool {
        match self {
            Request::Swap { .. } => true,
            Request::Read { .. } | Request::Probe { .. } => false,
        }
    }

    pub fn wire_bytes(&self) -> usize {
        match self {
            Request::Read { .. } => 0,
            Request::Swap { value, .. } => value.len(),
            Request::Probe { .. } => 0,
        }
    }

    pub fn payload_bytes(&self) -> usize {
        match self {
            Request::Read { .. } => 0,
            Request::Swap { value, .. } => value.len(),
            Request::Probe { .. } => 0,
        }
    }
}

impl Reply {
    pub fn wire_bytes(&self) -> usize {
        match self {
            Reply::Read(b) => b.len(),
            Reply::Ack => 0,
        }
    }

    pub fn payload_bytes(&self) -> usize {
        match self {
            Reply::Read(b) => b.len(),
            Reply::Ack => 0,
        }
    }
}
