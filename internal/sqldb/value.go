// Package sqldb implements an embedded, in-process relational database
// engine with a SQL subset, used by GenMapper as the substitute for the
// MySQL backend of the original system.
//
// The engine supports typed columns (INTEGER, REAL, TEXT, BOOLEAN), hash
// and B-tree indexes, inner and left outer joins, grouping and aggregation,
// ordering, DISTINCT projection, transactions with rollback, and snapshot
// persistence. It is exposed through a native API (DB.Query / DB.Exec).
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the declared type of a column.
type Type int

// Column types supported by the engine.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	default:
		return "NULL"
	}
}

// Value is a single cell value. The concrete dynamic type is one of
// nil, int64, float64, string, or bool.
type Value any

// TypeOf reports the Type of a runtime value.
func TypeOf(v Value) Type {
	switch v.(type) {
	case nil:
		return TypeNull
	case int64:
		return TypeInt
	case float64:
		return TypeFloat
	case string:
		return TypeText
	case bool:
		return TypeBool
	default:
		return TypeNull
	}
}

// Normalize converts arbitrary numeric Go values (as produced by callers or
// the database/sql layer) into the engine's canonical representations.
func Normalize(v any) (Value, error) {
	switch x := v.(type) {
	case nil, int64, float64, string, bool:
		return x, nil
	case int:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case uint:
		return int64(x), nil
	case uint8:
		return int64(x), nil
	case uint16:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case uint64:
		if x > math.MaxInt64 {
			return nil, fmt.Errorf("sqldb: uint64 value %d overflows INTEGER", x)
		}
		return int64(x), nil
	case float32:
		return float64(x), nil
	case []byte:
		return string(x), nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported value type %T", v)
	}
}

// Coerce converts v to the column type t, or reports an error when the
// conversion would lose meaning. NULL is accepted by every type.
func Coerce(v Value, t Type) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TypeInt:
		switch x := v.(type) {
		case int64:
			return v, nil // already boxed: returning x would allocate anew
		case float64:
			if x == math.Trunc(x) && !math.IsInf(x, 0) {
				return int64(x), nil
			}
			return nil, fmt.Errorf("sqldb: cannot store non-integral %v in INTEGER column", x)
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sqldb: cannot convert %q to INTEGER", x)
			}
			return n, nil
		}
	case TypeFloat:
		switch x := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(x), nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, fmt.Errorf("sqldb: cannot convert %q to REAL", x)
			}
			return f, nil
		}
	case TypeText:
		switch x := v.(type) {
		case string:
			return v, nil
		case int64:
			return strconv.FormatInt(x, 10), nil
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		case bool:
			if x {
				return "true", nil
			}
			return "false", nil
		}
	case TypeBool:
		switch x := v.(type) {
		case bool:
			return v, nil
		case int64:
			return x != 0, nil
		}
	}
	return nil, fmt.Errorf("sqldb: cannot coerce %T to %s", v, t)
}

// Compare orders two values. NULL sorts before every non-NULL value.
// Numeric values of mixed int/float types compare numerically. Comparing
// incomparable types (e.g. TEXT with INTEGER) orders by type tag so that
// sorting remains total and deterministic.
func Compare(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		case float64:
			return compareFloat(float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return compareFloat(x, float64(y))
		case float64:
			return compareFloat(x, y)
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case !x && y:
				return -1
			case x && !y:
				return 1
			}
			return 0
		}
	}
	ta, tb := TypeOf(a), TypeOf(b)
	switch {
	case ta < tb:
		return -1
	case ta > tb:
		return 1
	}
	return 0
}

func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// Equal reports SQL equality; NULL never equals anything, including NULL.
// Use Compare for ordering semantics where NULLs group together.
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return false
	}
	return Compare(a, b) == 0
}

// FormatValue renders a value the way the CLI tools and the test suite
// display result cells.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%v", x)
	}
}

// hashKey converts a value to a comparable map key used by hash indexes
// and hash joins. Integers and integral floats hash identically so that
// numeric equality matches hash-bucket equality.
type hashKey struct {
	kind byte
	num  float64
	str  string
}

func makeHashKey(v Value) hashKey {
	switch x := v.(type) {
	case nil:
		return hashKey{kind: 'n'}
	case int64:
		return hashKey{kind: 'f', num: float64(x)}
	case float64:
		return hashKey{kind: 'f', num: x}
	case string:
		return hashKey{kind: 's', str: x}
	case bool:
		if x {
			return hashKey{kind: 'b', num: 1}
		}
		return hashKey{kind: 'b', num: 0}
	default:
		return hashKey{kind: '?', str: fmt.Sprintf("%v", x)}
	}
}
