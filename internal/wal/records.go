package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/monitor"
)

// Record payload codecs. Everything is fixed-width little-endian: an Object
// is 48 bytes (id + pos + vel + t), a RangeQuery is its kind byte plus
// twelve float64 fields, so encode/decode never allocates per field and the
// formats double as the checkpoint file's vocabulary.

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func takeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("wal: truncated record")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func takeF64(b []byte) (float64, []byte, error) {
	u, rest, err := takeU64(b)
	return math.Float64frombits(u), rest, err
}

// objectBytes is the wire size of one model.Object.
const objectBytes = 48

// AppendObject appends the 48-byte encoding of o.
func AppendObject(b []byte, o model.Object) []byte {
	b = appendU64(b, uint64(o.ID))
	b = appendF64(b, o.Pos.X)
	b = appendF64(b, o.Pos.Y)
	b = appendF64(b, o.Vel.X)
	b = appendF64(b, o.Vel.Y)
	b = appendF64(b, o.T)
	return b
}

// TakeObject decodes one object from the front of b.
func TakeObject(b []byte) (model.Object, []byte, error) {
	if len(b) < objectBytes {
		return model.Object{}, nil, fmt.Errorf("wal: truncated object")
	}
	var o model.Object
	o.ID = model.ObjectID(binary.LittleEndian.Uint64(b))
	o.Pos.X = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	o.Pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	o.Vel.X = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	o.Vel.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
	o.T = math.Float64frombits(binary.LittleEndian.Uint64(b[40:]))
	return o, b[objectBytes:], nil
}

// DecodeReport decodes a TypeReport payload.
func DecodeReport(p []byte) (model.Object, error) {
	o, rest, err := TakeObject(p)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("wal: trailing bytes in report record")
	}
	return o, err
}

// EncodeReportBatch encodes a batch report record.
func EncodeReportBatch(objs []model.Object) []byte {
	return AppendReportBatch(make([]byte, 0, 8+len(objs)*objectBytes), objs)
}

// AppendReportBatch appends a batch report record of objs to b (typically a
// pooled buffer from GetBuf).
func AppendReportBatch(b []byte, objs []model.Object) []byte {
	b = appendU64(b, uint64(len(objs)))
	for _, o := range objs {
		b = AppendObject(b, o)
	}
	return b
}

// DecodeReportBatch decodes a TypeReportBatch payload.
func DecodeReportBatch(p []byte) ([]model.Object, error) {
	n, rest, err := takeU64(p)
	if err != nil {
		return nil, err
	}
	if nb, ok := model.CountBytes(n, objectBytes, len(rest)); !ok || nb != len(rest) {
		return nil, fmt.Errorf("wal: batch record length mismatch")
	}
	objs := make([]model.Object, n)
	for i := range objs {
		if objs[i], rest, err = TakeObject(rest); err != nil {
			return nil, err
		}
	}
	return objs, nil
}

// AppendRemove appends a remove record to b.
func AppendRemove(b []byte, id model.ObjectID) []byte {
	return appendU64(b, uint64(id))
}

// DecodeRemove decodes a TypeRemove payload.
func DecodeRemove(p []byte) (model.ObjectID, error) {
	id, rest, err := takeU64(p)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("wal: trailing bytes in remove record")
	}
	return model.ObjectID(id), err
}

func appendQuery(b []byte, q model.RangeQuery) []byte {
	b = append(b, byte(q.Kind))
	b = appendF64(b, q.Rect.MinX)
	b = appendF64(b, q.Rect.MinY)
	b = appendF64(b, q.Rect.MaxX)
	b = appendF64(b, q.Rect.MaxY)
	b = appendF64(b, q.Circle.C.X)
	b = appendF64(b, q.Circle.C.Y)
	b = appendF64(b, q.Circle.R)
	b = appendF64(b, q.Vel.X)
	b = appendF64(b, q.Vel.Y)
	b = appendF64(b, q.Now)
	b = appendF64(b, q.T0)
	b = appendF64(b, q.T1)
	return b
}

func takeQuery(b []byte) (model.RangeQuery, []byte, error) {
	if len(b) < 1+12*8 {
		return model.RangeQuery{}, nil, fmt.Errorf("wal: truncated query")
	}
	var q model.RangeQuery
	q.Kind = model.QueryKind(b[0])
	b = b[1:]
	fields := []*float64{
		&q.Rect.MinX, &q.Rect.MinY, &q.Rect.MaxX, &q.Rect.MaxY,
		&q.Circle.C.X, &q.Circle.C.Y, &q.Circle.R,
		&q.Vel.X, &q.Vel.Y, &q.Now, &q.T0, &q.T1,
	}
	for _, f := range fields {
		*f, b, _ = takeF64(b)
	}
	return q, b, nil
}

// AppendSubscription appends the fixed-width encoding of sub.
func AppendSubscription(b []byte, sub monitor.Subscription) []byte {
	b = appendQuery(b, sub.Query)
	b = appendF64(b, sub.Horizon)
	b = appendF64(b, sub.Window)
	return b
}

// TakeSubscription decodes one subscription from the front of b.
func TakeSubscription(b []byte) (monitor.Subscription, []byte, error) {
	var sub monitor.Subscription
	q, rest, err := takeQuery(b)
	if err != nil {
		return sub, nil, err
	}
	sub.Query = q
	if sub.Horizon, rest, err = takeF64(rest); err != nil {
		return sub, nil, err
	}
	if sub.Window, rest, err = takeF64(rest); err != nil {
		return sub, nil, err
	}
	return sub, rest, nil
}

// AppendSubscribe appends a subscribe record to b: the engine-assigned id,
// the subscription, and the registration time (replay must re-seed the result
// set at the same clock).
func AppendSubscribe(b []byte, id monitor.SubscriptionID, sub monitor.Subscription, now float64) []byte {
	b = appendU64(b, uint64(id))
	b = AppendSubscription(b, sub)
	b = appendF64(b, now)
	return b
}

// DecodeSubscribe decodes a TypeSubscribe payload.
func DecodeSubscribe(p []byte) (monitor.SubscriptionID, monitor.Subscription, float64, error) {
	id, rest, err := takeU64(p)
	if err != nil {
		return 0, monitor.Subscription{}, 0, err
	}
	sub, rest, err := TakeSubscription(rest)
	if err != nil {
		return 0, monitor.Subscription{}, 0, err
	}
	now, rest, err := takeF64(rest)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("wal: trailing bytes in subscribe record")
	}
	return monitor.SubscriptionID(id), sub, now, err
}

// AppendUnsubscribe appends an unsubscribe record to b.
func AppendUnsubscribe(b []byte, id monitor.SubscriptionID) []byte {
	return appendU64(b, uint64(id))
}

// DecodeUnsubscribe decodes a TypeUnsubscribe payload.
func DecodeUnsubscribe(p []byte) (monitor.SubscriptionID, error) {
	id, rest, err := takeU64(p)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("wal: trailing bytes in unsubscribe record")
	}
	return monitor.SubscriptionID(id), err
}

// AppendRefresh appends a subscription-refresh record (pure time advance)
// to b.
func AppendRefresh(b []byte, now float64) []byte {
	return appendF64(b, now)
}

// DecodeRefresh decodes a TypeRefresh payload.
func DecodeRefresh(p []byte) (float64, error) {
	now, rest, err := takeF64(p)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("wal: trailing bytes in refresh record")
	}
	return now, err
}
