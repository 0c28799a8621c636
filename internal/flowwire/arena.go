package flowwire

// arenaChunk is the size of one packetArena chunk. Every house packet is a
// few KiB at most, so a chunk holds dozens and its unused tail is small.
const arenaChunk = 64 << 10

// packetArena is the packet store every exporter encodes into. Packets are
// appended back to back into fixed-size chunks, a packet never straddling
// two, and Drain hands them out as capped slices of the chunk they were
// written into, without a copy. The arena never writes below the end of
// the last packet of a chunk and never reuses a chunk, so a drained packet
// stays valid however long it is held, and a long run costs one chunk
// allocation per arenaChunk bytes instead of regrowing an arena per Drain.
type packetArena struct {
	// chunk is the chunk being filled: its length is the bytes written.
	chunk []byte
	pkts  [][]byte
}

// begin returns the buffer the next packet is appended to: the current
// chunk, or a fresh one when fewer than n bytes are left in it. n bounds
// the packet's encoded length; a packet that outgrows it still comes out
// whole, in the copy append makes of the chunk.
func (a *packetArena) begin(n int) []byte {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]byte, 0, max(arenaChunk, n))
	}
	return a.chunk
}

// end records the packet appended to the buffer begin returned.
func (a *packetArena) end(buf []byte) {
	a.pkts = append(a.pkts, buf[len(a.chunk):len(buf):len(buf)])
	a.chunk = buf
}

// Drain returns the packets recorded since the last Drain, in order, and
// forgets them. The returned slices stay valid indefinitely.
func (a *packetArena) Drain() [][]byte {
	if len(a.pkts) == 0 {
		return nil
	}
	out := append([][]byte(nil), a.pkts...)
	clear(a.pkts)
	a.pkts = a.pkts[:0]
	return out
}
