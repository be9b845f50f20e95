package tprtree

import (
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// Search implements model.Index: all three query types of Section 2.1 via
// the time-parameterized intersection test, with exact refinement of leaf
// candidates through the query's model.Matcher predicate (this also
// restricts circular queries from their MBR to the disk); see SearchAppend.
func (t *Tree) Search(q model.RangeQuery) ([]model.ObjectID, error) {
	return t.SearchAppend(nil, q)
}

// SearchAppend is Search appending the matching ids to out, for a caller
// that recycles its result buffers (the VP manager). The query is prepared
// once per call. An internal entry is opened when
// getMR(s).IntersectsDuring(q.AsMovingRect(), q.T0, q.EndTime()) would hold,
// tested on the slot's nine scalars; a leaf record is reported when
// model.NewMatcher(q).Matches holds for it, tested by the Matcher's scalar
// form on the slot's five floats, the id decoded only on a hit. The slot
// tests perform those functions' operations in their order, so the verdict is
// theirs for every float input, NaN and ±0 included: the pages opened, the
// answers and their order are the decoding search's.
func (t *Tree) SearchAppend(out []model.ObjectID, q model.RangeQuery) ([]model.ObjectID, error) {
	p := newRangeProbe(q)
	var buf [64]pageRef
	stack := append(buf[:0], pageRef{id: t.root, level: t.height - 1})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := t.view(top.id, top.level, func(data []byte, count int) {
			if top.level == 0 {
				out = p.appendHits(out, data, count)
				return
			}
			for i := 0; i < count; i++ {
				if s := entrySlot(data, i); p.entryHit(s) {
					stack = append(stack, pageRef{id: getChild(s), level: top.level - 1})
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pageRef is a page a traversal has yet to visit and the level it must hold:
// checked on arrival (header), so a corrupt child pointer cannot send a
// traversal in circles.
type pageRef struct {
	id    storage.PageID
	level int
}

// rangeProbe is one range query prepared for SearchAppend: the parts of
// both slot tests that do not depend on the slot.
type rangeProbe struct {
	t0, t1 float64
	q      geom.MovingRect // q.AsMovingRect().Rebase(t0), IntersectsDuring's rebased query
	m      model.Matcher
}

func newRangeProbe(q model.RangeQuery) rangeProbe {
	t0, t1 := q.T0, q.EndTime()
	return rangeProbe{
		t0: t0, t1: t1,
		q: q.AsMovingRect().Rebase(t0),
		m: model.NewMatcher(q),
	}
}

// entryHit is getMR(s).IntersectsDuring(q.AsMovingRect(), t0, t1) on the nine
// scalars of internal slot s: the entry's Rebase(t0) — AtTime's products and
// its min/max swap — then geom.IntersectsRebased against the prepared query.
func (p *rangeProbe) entryHit(s []byte) bool {
	vMinX, vMinY, vMaxX, vMaxY := getF64(s[40:48]), getF64(s[48:56]), getF64(s[56:64]), getF64(s[64:72])
	dt := p.t0 - getF64(s[72:80])
	minX, minY := getF64(s[8:16])+vMinX*dt, getF64(s[16:24])+vMinY*dt
	maxX, maxY := getF64(s[24:32])+vMaxX*dt, getF64(s[32:40])+vMaxY*dt
	if minX > maxX {
		minX, maxX = maxX, minX
	}
	if minY > maxY {
		minY, maxY = maxY, minY
	}
	m := geom.MovingRect{
		MBR: geom.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY},
		VBR: geom.Rect{MinX: vMinX, MinY: vMinY, MaxX: vMaxX, MaxY: vMaxY},
	}
	return geom.IntersectsRebased(&m, &p.q, p.t0, p.t1)
}

// appendHits appends to out the ids of the records on a leaf page that
// satisfy the query, m.Matches(getObj(s)) for each slot s: the Matcher's
// scalar form runs on the slot's five floats — its slice-circle half inline,
// MatchesMotion for other shapes — and the id is read only on a hit.
func (p *rangeProbe) appendHits(out []model.ObjectID, data []byte, count int) []model.ObjectID {
	for i := 0; i < count; i++ {
		s := leafSlot(data, i)
		pos := geom.Vec2{X: getF64(s[8:16]), Y: getF64(s[16:24])}
		vel := geom.Vec2{X: getF64(s[24:32]), Y: getF64(s[32:40])}
		t := getF64(s[40:48])
		hit, ok := p.m.SliceCircleHit(pos, vel, t)
		if !ok {
			hit = p.m.MatchesMotion(pos, vel, t)
		}
		if hit {
			out = append(out, getID(s))
		}
	}
	return out
}
