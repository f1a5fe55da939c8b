// The frame codec, exported: one length+CRC framing serves both the
// on-disk segment records and the binary telemetry wire (an HTTP body
// carries exactly one frame — see internal/ingest's wire format and
// the "Ingest wire protocols" section of ARCHITECTURE.md). Sharing the
// codec means a frame acknowledged off the network is byte-for-byte
// the thing the journal can persist, and both sides reject the same
// corruptions the same way.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

const (
	// FrameHead is the fixed frame prefix: uint32 payload length plus
	// uint32 CRC-32 (IEEE), both little-endian.
	FrameHead = frameHead
	// MaxFramePayload bounds a single frame payload; a larger length in
	// a frame header is corruption, not data.
	MaxFramePayload = maxRecordBytes
)

// Frame-parse errors. ParseFrame returns exactly one of these (possibly
// wrapped) so transports can distinguish "wait for more bytes" from
// "drop the frame".
var (
	// ErrFrameTruncated marks a frame whose header or payload extends
	// past the available bytes.
	ErrFrameTruncated = errors.New("wal: truncated frame")
	// ErrFrameOversize marks a frame header declaring a payload larger
	// than MaxFramePayload.
	ErrFrameOversize = errors.New("wal: frame length exceeds limit")
	// ErrFrameChecksum marks a payload that does not match its CRC.
	ErrFrameChecksum = errors.New("wal: frame checksum mismatch")
)

// FrameSize returns the encoded size of a payload of the given length.
func FrameSize(payloadLen int) int { return FrameHead + payloadLen }

// AppendFrame appends one framed payload to dst and returns the
// extended slice. It never fails; callers enforcing MaxFramePayload do
// so before framing (Append does, and the ingest doors bound bodies
// long before this limit).
func AppendFrame(dst, payload []byte) []byte {
	var head [FrameHead]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, head[:]...)
	return append(dst, payload...)
}

// ParseFrame parses one frame from the front of b, returning the
// payload and the total bytes consumed. The payload aliases b — zero
// copy; callers that outlive b must copy it. The CRC is verified, so a
// nil error means the payload is exactly the bytes that were framed.
func ParseFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < FrameHead {
		return nil, 0, ErrFrameTruncated
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if size > MaxFramePayload {
		return nil, 0, ErrFrameOversize
	}
	end := FrameHead + int(size)
	if len(b) < end {
		return nil, 0, ErrFrameTruncated
	}
	payload = b[FrameHead:end]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, ErrFrameChecksum
	}
	return payload, end, nil
}
