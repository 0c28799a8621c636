package flowwire

import (
	"container/list"
	"fmt"
	"slices"
)

// Template machinery shared by the NetFlow v9 and IPFIX decoders. Both
// formats describe record layouts out of band: an exporter sends template
// records naming (information element, length) pairs, then data sets that
// reference a template by ID. The decoder must therefore keep per-exporter
// state — and because that state is attacker-influenced (templates arrive
// in packets), every definition is validated against hard bounds BEFORE
// anything is allocated for it, and the cache is capped (LRU eviction)
// and idle-expired so a hostile exporter cannot grow it without bound.
//
// Expiry is measured in decode ticks (one tick per Decode call on the
// owning decoder), not wall time, so replaying the same packet stream
// always exercises the same cache transitions — determinism the
// checkpoint fingerprint and the golden e2e fixtures rely on.

// Information element IDs used by the house template layout. These are
// the IANA "ipfix" assignments, which NetFlow v9 field types mirror.
const (
	ieOctets      = 1   // octetDeltaCount
	iePackets     = 2   // packetDeltaCount
	ieProto       = 4   // protocolIdentifier
	ieTCPFlags    = 6   // tcpControlBits
	ieSrcPort     = 7   // sourceTransportPort
	ieSrcAddr     = 8   // sourceIPv4Address
	ieDstPort     = 11  // destinationTransportPort
	ieDstAddr     = 12  // destinationIPv4Address
	ieLast        = 21  // flowEndSysUpTime
	ieFirst       = 22  // flowStartSysUpTime
	ieSampling    = 34  // samplingInterval (v9; IPFIX-deprecated but parseable)
	ieScopeDomain = 149 // observationDomainId (IPFIX options scope)
)

// Hard bounds a template definition must satisfy before the decoder
// allocates anything for it. They are generous for real exporters and
// hostile to degenerate ones.
const (
	// minDataSetID is the first valid data template ID; v9 and IPFIX both
	// reserve 0–255 for protocol sets.
	minDataSetID = 256
	// maxTemplateFields bounds the field count of one template.
	maxTemplateFields = 64
	// maxFieldLen bounds a single field's length.
	maxFieldLen = 512
	// maxTemplateRecLen bounds the record length a template implies.
	maxTemplateRecLen = 1500
	// templateCacheCap bounds the number of cached templates across all
	// exporters; beyond it the least recently used is evicted.
	templateCacheCap = 4096
	// templateTTL is the idle expiry in decode ticks: a template untouched
	// for this many Decode calls is forgotten, like a real collector
	// timing out a silent exporter.
	templateTTL = 1 << 20
)

// FieldSpec is one field of a template definition: an information element
// ID, its encoded length, and (IPFIX only) an enterprise number for
// vendor-private elements. It is exported because template snapshots are
// checkpoint state.
type FieldSpec struct {
	ID         uint16
	Enterprise uint32
	Length     uint16
}

// TemplateSnapshot is the portable form of one cached template, ordered
// most- to least-recently-used in Registry.TemplateSnapshots output.
// Restoring a snapshot revalidates it exactly like a wire template.
type TemplateSnapshot struct {
	Source uint32 // exporter identity (v9 source ID / IPFIX observation domain)
	ID     uint16
	Scope  uint16 // number of leading scope fields; >0 marks an options template
	Fields []FieldSpec
}

// template is a validated, compiled template: the field list plus
// precomputed byte offsets for the elements the normalizer extracts.
// An offset of -1 means the template does not carry that element.
type template struct {
	id     uint16
	scope  uint16 // scope field count; >0 → options template, data skipped
	fields []FieldSpec
	recLen int

	srcOff, dstOff     int // sourceIPv4Address / destinationIPv4Address (len 4)
	bytesOff, bytesLen int // octetDeltaCount
	pktsOff, pktsLen   int // packetDeltaCount
	sampOff, sampLen   int // samplingInterval (options records)
}

// compileTemplate validates a field list against the hostile-input bounds
// and precomputes extraction offsets. It is the single gate between
// attacker-controlled template definitions and decoder state: wire
// templates and restored snapshots both pass through it, and it allocates
// nothing until every field has been checked.
func compileTemplate(id uint16, scope uint16, fields []FieldSpec) (*template, error) {
	if id < minDataSetID {
		return nil, fmt.Errorf("%w: template ID %d in reserved range [0,%d)", ErrBadTemplate, id, minDataSetID)
	}
	if len(fields) == 0 || len(fields) > maxTemplateFields {
		return nil, fmt.Errorf("%w: template %d has %d fields (want 1..%d)", ErrBadTemplate, id, len(fields), maxTemplateFields)
	}
	if int(scope) > len(fields) {
		return nil, fmt.Errorf("%w: template %d scope count %d exceeds field count %d", ErrBadTemplate, id, scope, len(fields))
	}
	recLen := 0
	for _, f := range fields {
		switch {
		case f.Length == 0:
			return nil, fmt.Errorf("%w: template %d element %d has zero length", ErrBadTemplate, id, f.ID)
		case f.Length == 0xFFFF:
			return nil, fmt.Errorf("%w: template %d element %d is variable-length (unsupported)", ErrBadTemplate, id, f.ID)
		case f.Length > maxFieldLen:
			return nil, fmt.Errorf("%w: template %d element %d length %d exceeds %d", ErrBadTemplate, id, f.ID, f.Length, maxFieldLen)
		}
		if f.Enterprise == 0 {
			switch f.ID {
			case ieSrcAddr, ieDstAddr:
				if f.Length != 4 {
					return nil, fmt.Errorf("%w: template %d IPv4 address element %d has length %d (want 4)", ErrBadTemplate, id, f.ID, f.Length)
				}
			case ieOctets, iePackets, ieSampling:
				switch f.Length {
				case 1, 2, 4, 8:
				default:
					return nil, fmt.Errorf("%w: template %d counter element %d has length %d (want 1/2/4/8)", ErrBadTemplate, id, f.ID, f.Length)
				}
			}
		}
		recLen += int(f.Length)
	}
	if recLen > maxTemplateRecLen {
		return nil, fmt.Errorf("%w: template %d record length %d exceeds %d", ErrBadTemplate, id, recLen, maxTemplateRecLen)
	}
	t := &template{
		id: id, scope: scope, recLen: recLen,
		srcOff: -1, dstOff: -1, bytesOff: -1, pktsOff: -1, sampOff: -1,
	}
	t.fields = append(t.fields, fields...) // own the slice; callers reuse parse buffers
	off := 0
	for _, f := range fields {
		if f.Enterprise == 0 {
			switch f.ID {
			case ieSrcAddr:
				t.srcOff = off
			case ieDstAddr:
				t.dstOff = off
			case ieOctets:
				t.bytesOff, t.bytesLen = off, int(f.Length)
			case iePackets:
				t.pktsOff, t.pktsLen = off, int(f.Length)
			case ieSampling:
				t.sampOff, t.sampLen = off, int(f.Length)
			}
		}
		off += int(f.Length)
	}
	return t, nil
}

// readUint reads an n-byte big-endian unsigned integer (n ∈ {1,2,4,8},
// enforced at template compile time).
func readUint(b []byte, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// templateKey identifies a template: exporters own independent template ID
// spaces, so the exporter identity is part of the key.
type templateKey struct {
	source uint32
	id     uint16
}

// templateCache is the bounded per-exporter template store: a map for
// lookup plus an intrusive LRU list for eviction, aged by decode ticks.
type templateCache struct {
	tick    uint64
	entries map[templateKey]*list.Element
	lru     *list.List // front = most recently used
}

type templateEntry struct {
	key  templateKey
	tmpl *template
	seen uint64 // tick of last use
}

func newTemplateCache() *templateCache {
	return &templateCache{entries: map[templateKey]*list.Element{}, lru: list.New()}
}

// bump advances the cache clock; the owning decoder calls it once per
// Decode so expiry is a deterministic function of the packet stream.
func (c *templateCache) bump() { c.tick++ }

// get returns the live template for (source, id), refreshing its age and
// LRU position, or nil when unknown or idle-expired.
func (c *templateCache) get(source uint32, id uint16) *template {
	el, ok := c.entries[templateKey{source, id}]
	if !ok {
		return nil
	}
	e := el.Value.(*templateEntry)
	if c.tick-e.seen > templateTTL {
		c.removeElement(el)
		return nil
	}
	e.seen = c.tick
	c.lru.MoveToFront(el)
	return e.tmpl
}

// put installs or replaces a template, evicting the least recently used
// entry when the cache is full. Redefinition is legal in both protocols
// (an exporter restarts and renumbers); the new definition simply wins.
func (c *templateCache) put(source uint32, t *template) {
	key := templateKey{source, t.id}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*templateEntry)
		e.tmpl, e.seen = t, c.tick
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= templateCacheCap {
		c.removeElement(c.lru.Back())
	}
	c.entries[key] = c.lru.PushFront(&templateEntry{key: key, tmpl: t, seen: c.tick})
}

// learn installs a template definition that arrived on the wire. Exporters
// re-announce their templates every few packets; when (source, id) already
// holds the same definition, learn only refreshes its age and LRU position,
// exactly as put would, and allocates nothing. Anything else compiles
// through compileTemplate and replaces the entry via put.
func (c *templateCache) learn(source uint32, id, scope uint16, fields []FieldSpec) error {
	if el, ok := c.entries[templateKey{source, id}]; ok {
		if e := el.Value.(*templateEntry); e.tmpl.scope == scope && slices.Equal(e.tmpl.fields, fields) {
			e.seen = c.tick
			c.lru.MoveToFront(el)
			return nil
		}
	}
	t, err := compileTemplate(id, scope, fields)
	if err != nil {
		return err
	}
	c.put(source, t)
	return nil
}

// drop forgets one template (IPFIX withdrawal).
func (c *templateCache) drop(source uint32, id uint16) {
	if el, ok := c.entries[templateKey{source, id}]; ok {
		c.removeElement(el)
	}
}

// dropSource forgets every template of one exporter (IPFIX withdraw-all).
func (c *templateCache) dropSource(source uint32) {
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*templateEntry).key.source == source {
			c.removeElement(el)
		}
		el = next
	}
}

func (c *templateCache) removeElement(el *list.Element) {
	delete(c.entries, el.Value.(*templateEntry).key)
	c.lru.Remove(el)
}

func (c *templateCache) len() int { return c.lru.Len() }

// snapshots returns every cached template most- to least-recently-used —
// a deterministic order given the decode history, which the checkpoint
// fingerprint depends on.
func (c *templateCache) snapshots() []TemplateSnapshot {
	if c.lru.Len() == 0 {
		return nil
	}
	out := make([]TemplateSnapshot, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*templateEntry)
		out = append(out, TemplateSnapshot{
			Source: e.key.source,
			ID:     e.tmpl.id,
			Scope:  e.tmpl.scope,
			Fields: append([]FieldSpec(nil), e.tmpl.fields...),
		})
	}
	return out
}

// restore rebuilds the cache from snapshots, revalidating each definition
// through compileTemplate — a tampered checkpoint is rejected exactly like
// a hostile wire template. The snapshot's MRU-first order is preserved.
func (c *templateCache) restore(snaps []TemplateSnapshot) error {
	for _, s := range snaps {
		if _, err := compileTemplate(s.ID, s.Scope, s.Fields); err != nil {
			return err
		}
	}
	c.entries = map[templateKey]*list.Element{}
	c.lru.Init()
	for i := len(snaps) - 1; i >= 0; i-- { // insert LRU-first so front ends up MRU
		s := snaps[i]
		t, _ := compileTemplate(s.ID, s.Scope, s.Fields)
		c.put(s.Source, t)
	}
	return nil
}
