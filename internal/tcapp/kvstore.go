package tcapp

import (
	"fmt"

	"twochains/internal/core"
)

// The kvstore app: a fixed-size open-addressed key/value table whose
// lookup function travels with the message — the client controls both
// the hash and the probe discipline, exactly the Indirect Put argument
// of paper §VI-B2 generalized into a small service. Three elements:
//
//	jam_kv_put(key, val):  insert or overwrite; returns the slot used.
//	jam_kv_get(key):       returns the stored value, 0 when absent.
//	jam_kv_scan(start, n): sums values over a wrapping slot window.
//
// Server-side state (ried_kvstore, generated from Data declarations):
// kv_keys/kv_vals (kvSlots quads each) and kv_count (occupied slots).

// kvSlots is the table size; kvMask the probe wrap mask. The table must
// stay far from full: an all-slots-occupied probe loop never finds an
// empty slot, so workloads are expected to keep distinct keys well
// under kvSlots (the stock scenarios draw keys from [1, 30000] in runs
// of a few thousand puts per node).
const (
	kvSlots = 16384
	kvMask  = kvSlots - 1
)

// kvHash is the shared hash (Go mirror of the jam's arithmetic — 64-bit
// wrapping multiply, logical shift).
func kvHash(key uint64) uint64 {
	h := key * 2654435761
	return (h ^ (h >> 15)) & kvMask
}

const kvPutSrc = `
// jam_kv_put: insert or overwrite key -> val; returns the slot used.
// A zero val stores the key itself so value-blind workload generators
// still produce scannable content.
extern long kv_keys[];
extern long kv_vals[];
extern long kv_count[];

long jam_kv_put(long* args, byte* usr, long len) {
    long key = args[0];
    long val = args[1];
    if (key == 0) { return 0; }
    if (val == 0) { val = key; }
    long h = key * 2654435761;
    h = (h ^ (h >> 15)) & 16383;
    for (;;) {
        long k = kv_keys[h];
        if (k == key) {
            kv_vals[h] = val;
            return h;
        }
        if (k == 0) {
            kv_keys[h] = key;
            kv_vals[h] = val;
            kv_count[0] = kv_count[0] + 1;
            return h;
        }
        h = (h + 1) & 16383;
    }
}
`

const kvGetSrc = `
// jam_kv_get: probe for key; returns the stored value, 0 when absent.
extern long kv_keys[];
extern long kv_vals[];

long jam_kv_get(long* args, byte* usr, long len) {
    long key = args[0];
    if (key == 0) { return 0; }
    long h = key * 2654435761;
    h = (h ^ (h >> 15)) & 16383;
    for (;;) {
        long k = kv_keys[h];
        if (k == key) { return kv_vals[h]; }
        if (k == 0) { return 0; }
        h = (h + 1) & 16383;
    }
}
`

const kvScanSrc = `
// jam_kv_scan: sum the values of occupied slots in a wrapping window of
// (args[1] & 127) + 1 slots starting at args[0] & 16383.
extern long kv_keys[];
extern long kv_vals[];

long jam_kv_scan(long* args, byte* usr, long len) {
    long i = args[0] & 16383;
    long n = (args[1] & 127) + 1;
    long sum = 0;
    while (n > 0) {
        if (kv_keys[i] != 0) { sum = sum + kv_vals[i]; }
        i = (i + 1) & 16383;
        n = n - 1;
    }
    return sum;
}
`

// kvStoreData declares the app's server-side state on b (shared
// between the full build and the rieds-only swap build).
func kvStoreData(b *Builder) *Builder {
	return b.
		Data("kv_keys", kvSlots*8).
		Data("kv_vals", kvSlots*8).
		DataWords("kv_count", 0)
}

// BuildKVStore assembles the kvstore package through the Builder.
func BuildKVStore() (*core.Package, error) {
	return kvStoreData(New("kvstore")).
		Func("kv_put", kvPutSrc).
		Func("kv_get", kvGetSrc).
		Func("kv_scan", kvScanSrc).
		Build()
}

// KVOracle is the native model of one node's kvstore state.
type KVOracle struct {
	keys [kvSlots]uint64
	vals [kvSlots]uint64
}

// NewKVOracle returns an empty table model.
func NewKVOracle() *KVOracle { return &KVOracle{} }

// Apply mirrors one kvstore handler execution.
func (o *KVOracle) Apply(elem string, args [2]uint64, usr []byte) (uint64, error) {
	switch elem {
	case "jam_kv_put":
		key, val := args[0], args[1]
		if key == 0 {
			return 0, nil
		}
		if val == 0 {
			val = key
		}
		h := kvHash(key)
		for {
			switch o.keys[h] {
			case key:
				o.vals[h] = val
				return h, nil
			case 0:
				o.keys[h], o.vals[h] = key, val
				return h, nil
			}
			h = (h + 1) & kvMask
		}
	case "jam_kv_get":
		key := args[0]
		if key == 0 {
			return 0, nil
		}
		h := kvHash(key)
		for {
			switch o.keys[h] {
			case key:
				return o.vals[h], nil
			case 0:
				return 0, nil
			}
			h = (h + 1) & kvMask
		}
	case "jam_kv_scan":
		i := args[0] & kvMask
		n := (args[1] & 127) + 1
		var sum uint64
		for ; n > 0; n-- {
			if o.keys[i] != 0 {
				sum += o.vals[i]
			}
			i = (i + 1) & kvMask
		}
		return sum, nil
	}
	return 0, fmt.Errorf("tcapp: kvstore oracle does not model %q", elem)
}
