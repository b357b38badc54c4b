package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"ultracomputer/internal/obs"
)

// pprof-compatible export, hand-rolled against the profile.proto wire
// format (github.com/google/pprof) using only the stdlib. The emitted
// bytes are deterministic: samples, locations and functions are written
// in canonical sorted order and the gzip header carries no timestamp,
// so same-seed runs produce byte-identical profiles.
//
// Wire schema subset (field numbers from profile.proto):
//
//	Profile:  1 sample_type  2 sample  3 mapping  4 location
//	          5 function  6 string_table  11 period_type  12 period
//	ValueType: 1 type  2 unit            (string-table indices)
//	Sample:    1 location_id*  2 value*  3 label
//	Label:     1 key  2 str              (string-table indices)
//	Mapping:   1 id  3 memory_limit  5 filename  7 has_functions
//	Location:  1 id  2 mapping_id  3 address  4 line
//	Line:      1 function_id  2 line
//	Function:  1 id  2 name  3 system_name  4 filename  5 start_line

type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// tag writes a field key; wire 0 = varint, 2 = length-delimited.
func (p *pbuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

func (p *pbuf) uint(field int, v uint64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(v)
}

func (p *pbuf) int(field int, v int64) { p.uint(field, uint64(v)) }

func (p *pbuf) bytes(field int, b []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packedU64(field int, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	var inner pbuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(field, inner.b)
}

// stringTable interns strings; index 0 is always "".
type stringTable struct {
	idx  map[string]int64
	strs []string
}

func newStringTable() *stringTable {
	return &stringTable{idx: map[string]int64{"": 0}, strs: []string{""}}
}

func (t *stringTable) add(s string) int64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := int64(len(t.strs))
	t.idx[s] = i
	t.strs = append(t.strs, s)
	return i
}

// PprofBytes encodes the merged profile as a gzipped profile.proto
// message that `go tool pprof` reads directly.
func (p *Profiler) PprofBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WritePprof writes the gzipped profile to w.
func (p *Profiler) WritePprof(w io.Writer) error {
	m := p.Merged()
	raw := encodePprof(m)
	zw := gzip.NewWriter(w) // zero ModTime: deterministic bytes
	if _, err := zw.Write(raw); err != nil {
		return err
	}
	return zw.Close()
}

func encodePprof(m *Merged) []byte {
	st := newStringTable()
	cyclesIdx := st.add("cycles")
	stateKey := st.add("state")
	stateIdx := make([]int64, obs.NumProfStates)
	for i := range stateIdx {
		stateIdx[i] = st.add(obs.ProfState(i).String())
	}

	// Functions: one per label span, in span order, plus pseudo entries
	// on demand — ids assigned in first-use order over sorted samples,
	// so numbering is canonical.
	funcID := make(map[string]uint64)
	type funcDef struct {
		id        uint64
		name      string
		startLine int
	}
	var funcs []funcDef
	internFunc := func(name string, startLine int) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcID[name] = id
		funcs = append(funcs, funcDef{id: id, name: name, startLine: startLine})
		return id
	}
	startLineOf := func(pc int32, state obs.ProfState) int {
		if m.prog == nil || state == obs.ProfHalted {
			return 0
		}
		for _, sp := range m.spans {
			if int(pc) >= sp.Start && int(pc) < sp.End {
				return m.prog.Line(sp.Start)
			}
		}
		return 0
	}

	// Locations: one per distinct (function, pc); ids in first-use order.
	type locKey struct {
		fn uint64
		pc int32
	}
	locID := make(map[locKey]uint64)
	type locDef struct {
		id   uint64
		addr uint64
		fn   uint64
		line int
	}
	var locs []locDef
	internLoc := func(pc int32, state obs.ProfState) uint64 {
		fn := internFunc(m.funcAt(pc, state), startLineOf(pc, state))
		k := locKey{fn: fn, pc: pc}
		if id, ok := locID[k]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locID[k] = id
		line := 0
		if m.prog != nil && state != obs.ProfHalted {
			line = m.prog.Line(int(pc))
		}
		locs = append(locs, locDef{id: id, addr: uint64(pc) + 1, fn: fn, line: line})
		return id
	}

	var samples pbuf
	locBuf := make([]uint64, 0, 16)
	for i := range m.samples {
		sr := &m.samples[i]
		locBuf = locBuf[:0]
		locBuf = append(locBuf, internLoc(sr.pc, sr.state))
		for _, c := range sr.stack {
			locBuf = append(locBuf, internLoc(c, obs.ProfExecute))
		}
		var sample pbuf
		sample.packedU64(1, locBuf)
		sample.packedU64(2, []uint64{uint64(sr.cycles)})
		var label pbuf
		label.int(1, stateKey)
		label.int(2, stateIdx[sr.state])
		sample.bytes(3, label.b)
		samples.bytes(2, sample.b)
	}

	var out pbuf
	var vt pbuf
	vt.int(1, cyclesIdx)
	vt.int(2, cyclesIdx)
	out.bytes(1, vt.b) // sample_type
	out.b = append(out.b, samples.b...)
	var mapping pbuf
	mapping.uint(1, 1)
	mapping.uint(3, 1<<32) // memory_limit
	mapping.int(5, st.add(m.File))
	mapping.uint(7, 1) // has_functions
	out.bytes(3, mapping.b)
	for _, l := range locs {
		var loc pbuf
		loc.uint(1, l.id)
		loc.uint(2, 1)
		loc.uint(3, l.addr)
		var line pbuf
		line.uint(1, l.fn)
		line.int(2, int64(l.line))
		loc.bytes(4, line.b)
		out.bytes(4, loc.b)
	}
	fileIdx := st.add(m.File)
	for _, f := range funcs {
		var fn pbuf
		fn.uint(1, f.id)
		nameIdx := st.add(f.name)
		fn.int(2, nameIdx)
		fn.int(3, nameIdx)
		fn.int(4, fileIdx)
		fn.int(5, int64(f.startLine))
		out.bytes(5, fn.b)
	}
	for _, s := range st.strs {
		out.bytes(6, []byte(s))
	}
	out.bytes(11, vt.b) // period_type
	out.uint(12, 1)     // period
	return out.b
}

// ---------------------------------------------------------------------
// Decoder: a minimal profile.proto reader, enough for the round-trip
// smoke check and `tables -prof` rendering of .pb.gz profiles.

// PprofFunc is a decoded function entry.
type PprofFunc struct {
	Name      string
	StartLine int64
}

// PprofLoc is a decoded location entry.
type PprofLoc struct {
	Address uint64
	FuncID  uint64
	Line    int64
}

// PprofSample is a decoded sample.
type PprofSample struct {
	LocIDs []uint64
	Values []int64
	Labels map[string]string
}

// PprofProfile is a decoded profile.
type PprofProfile struct {
	SampleTypes []string
	Samples     []PprofSample
	Locations   map[uint64]PprofLoc
	Functions   map[uint64]PprofFunc
}

// TotalValue sums the first value across samples.
func (p *PprofProfile) TotalValue() int64 {
	var t int64
	for i := range p.Samples {
		if len(p.Samples[i].Values) > 0 {
			t += p.Samples[i].Values[0]
		}
	}
	return t
}

// FuncName resolves a sample's leaf (first) location to its function
// name, "" when unresolvable.
func (p *PprofProfile) FuncName(s *PprofSample) string {
	if len(s.LocIDs) == 0 {
		return ""
	}
	loc, ok := p.Locations[s.LocIDs[0]]
	if !ok {
		return ""
	}
	fn, ok := p.Functions[loc.FuncID]
	if !ok {
		return ""
	}
	return fn.Name
}

type pbreader struct {
	b   []byte
	pos int
}

func (r *pbreader) done() bool { return r.pos >= len(r.b) }

func (r *pbreader) varint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if r.pos >= len(r.b) {
			return 0, fmt.Errorf("pprof: truncated varint")
		}
		c := r.b[r.pos]
		r.pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("pprof: varint overflow")
}

// field reads one tag and its payload: varint fields return (val, nil),
// length-delimited fields return (0, bytes).
func (r *pbreader) field() (field int, val uint64, sub []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
		return field, val, nil, err
	case 2:
		n, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		if uint64(r.pos)+n > uint64(len(r.b)) {
			return 0, 0, nil, fmt.Errorf("pprof: truncated field %d", field)
		}
		sub = r.b[r.pos : r.pos+int(n)]
		r.pos += int(n)
		return field, 0, sub, nil
	case 5:
		r.pos += 4
		return field, 0, nil, nil
	case 1:
		r.pos += 8
		return field, 0, nil, nil
	}
	return 0, 0, nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
}

func packedU64s(b []byte) ([]uint64, error) {
	r := &pbreader{b: b}
	var vs []uint64
	for !r.done() {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// ParsePprof decodes a (possibly gzipped) profile.proto blob.
func ParsePprof(data []byte) (*PprofProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		if err := zr.Close(); err != nil {
			return nil, err
		}
		data = raw
	}
	p := &PprofProfile{
		Locations: make(map[uint64]PprofLoc),
		Functions: make(map[uint64]PprofFunc),
	}
	var strs []string
	funcNameIdx := make(map[uint64]uint64)
	type rawLabel struct{ key, str uint64 }
	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels []rawLabel
	}
	var rawSamples []rawSample
	type rawVT struct{ typ uint64 }
	var sampleTypes []rawVT
	r := &pbreader{b: data}
	for !r.done() {
		f, _, sub, err := r.field()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1: // sample_type
			vr := &pbreader{b: sub}
			var vt rawVT
			for !vr.done() {
				vf, vv, _, err := vr.field()
				if err != nil {
					return nil, err
				}
				if vf == 1 {
					vt.typ = vv
				}
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			sr := &pbreader{b: sub}
			var s rawSample
			for !sr.done() {
				sf, sv, ssub, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch sf {
				case 1:
					if ssub != nil {
						vs, err := packedU64s(ssub)
						if err != nil {
							return nil, err
						}
						s.locs = append(s.locs, vs...)
					} else {
						s.locs = append(s.locs, sv)
					}
				case 2:
					if ssub != nil {
						vs, err := packedU64s(ssub)
						if err != nil {
							return nil, err
						}
						for _, v := range vs {
							s.vals = append(s.vals, int64(v))
						}
					} else {
						s.vals = append(s.vals, int64(sv))
					}
				case 3:
					lr := &pbreader{b: ssub}
					var l rawLabel
					for !lr.done() {
						lf, lv, _, err := lr.field()
						if err != nil {
							return nil, err
						}
						switch lf {
						case 1:
							l.key = lv
						case 2:
							l.str = lv
						}
					}
					s.labels = append(s.labels, l)
				}
			}
			rawSamples = append(rawSamples, s)
		case 4: // location
			lr := &pbreader{b: sub}
			var id uint64
			var loc PprofLoc
			for !lr.done() {
				lf, lv, lsub, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch lf {
				case 1:
					id = lv
				case 3:
					loc.Address = lv
				case 4:
					nr := &pbreader{b: lsub}
					for !nr.done() {
						nf, nv, _, err := nr.field()
						if err != nil {
							return nil, err
						}
						switch nf {
						case 1:
							loc.FuncID = nv
						case 2:
							loc.Line = int64(nv)
						}
					}
				}
			}
			p.Locations[id] = loc
		case 5: // function
			fr := &pbreader{b: sub}
			var id, nameIdx, startLine uint64
			for !fr.done() {
				ff, fv, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch ff {
				case 1:
					id = fv
				case 2:
					nameIdx = fv
				case 5:
					startLine = fv
				}
			}
			funcNameIdx[id] = nameIdx
			p.Functions[id] = PprofFunc{StartLine: int64(startLine)}
		case 6: // string_table
			strs = append(strs, string(sub))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, vt := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, str(vt.typ))
	}
	for id, fn := range p.Functions {
		fn.Name = str(funcNameIdx[id])
		p.Functions[id] = fn
	}
	for _, rs := range rawSamples {
		s := PprofSample{LocIDs: rs.locs, Values: rs.vals, Labels: make(map[string]string, len(rs.labels))}
		for _, l := range rs.labels {
			s.Labels[str(l.key)] = str(l.str)
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}
