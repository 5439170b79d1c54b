//! Bit-level I/O and exp-Golomb coding for the AJPG entropy stage.

/// Bounds-checked little-endian u32 read, for container headers. Returns
/// `Err` (never panics) when the stream is too short.
pub fn read_u32_le(bytes: &[u8], at: usize) -> Result<u32, String> {
    let b: [u8; 4] = at
        .checked_add(4)
        .and_then(|end| bytes.get(at..end))
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| format!("truncated header at byte {at}"))?;
    Ok(u32::from_le_bytes(b))
}

/// MSB-first bit writer.
#[derive(Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    cur: u8,
    nbits: u8,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | bit as u8;
        self.nbits += 1;
        if self.nbits == 8 {
            self.bytes.push(self.cur);
            self.cur = 0;
            self.nbits = 0;
        }
    }

    /// Append the low `n` bits of `value`, MSB first.
    pub fn put_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64);
        for i in (0..n).rev() {
            self.put_bit((value >> i) & 1 == 1);
        }
    }

    /// Unsigned exp-Golomb code (order 0): `v+1` written as
    /// `leading_zeros(len-1) ++ binary(v+1)`.
    pub fn put_ue(&mut self, v: u64) {
        let x = v + 1;
        let len = 64 - x.leading_zeros() as u8; // bit length of x ≥ 1
        self.put_bits(0, len - 1);
        self.put_bits(x, len);
    }

    /// Signed exp-Golomb: zigzag map then [`BitWriter::put_ue`].
    pub fn put_se(&mut self, v: i64) {
        let mapped = if v <= 0 {
            (-v as u64) * 2
        } else {
            (v as u64) * 2 - 1
        };
        self.put_ue(mapped);
    }

    /// Flush (zero-padding the final partial byte) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.cur <<= 8 - self.nbits;
            self.bytes.push(self.cur);
        }
        self.bytes
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }
}

/// MSB-first bit reader over a byte slice.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Read one bit; error at end of stream.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool, String> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err("bitstream exhausted".into());
        }
        let bit = 7 - (self.pos % 8) as u8;
        self.pos += 1;
        Ok((self.bytes[byte] >> bit) & 1 == 1)
    }

    /// Read `n` bits MSB-first.
    pub fn get_bits(&mut self, n: u8) -> Result<u64, String> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.get_bit()? as u64;
        }
        Ok(v)
    }

    /// Unsigned exp-Golomb decode.
    pub fn get_ue(&mut self) -> Result<u64, String> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 63 {
                return Err("malformed exp-Golomb code".into());
            }
        }
        let rest = self.get_bits(zeros)?;
        Ok(((1u64 << zeros) | rest) - 1)
    }

    /// Signed exp-Golomb decode.
    pub fn get_se(&mut self) -> Result<i64, String> {
        let v = self.get_ue()?;
        Ok(if v % 2 == 0 {
            -((v / 2) as i64)
        } else {
            v.div_ceil(2) as i64
        })
    }

    /// Current bit position (for diagnostics).
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}
