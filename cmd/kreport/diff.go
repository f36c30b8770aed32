package main

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/inject"
)

// errDiffer is -diff's verdict on two result sets that differ; main
// turns it into exit status 1.
var errDiffer = errors.New("result sets differ")

// runDiff compares two result sets and names each difference: the
// study parameters, the quarantine lists, and for each campaign the
// first target ordinal whose results differ, field by field.
func runDiff(pathA, pathB string, w io.Writer) error {
	a, err := loadSet(pathA, io.Discard)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB, io.Discard)
	if err != nil {
		return err
	}
	if !diffSets(a, b, w) {
		fmt.Fprintf(w, "identical: %s and %s\n", pathA, pathB)
		return nil
	}
	return errDiffer
}

// diffSets prints every difference between a and b, and reports
// whether there was one.
func diffSets(a, b *analysis.ResultSet, w io.Writer) bool {
	differ := false
	param := func(name string, va, vb any) {
		if !reflect.DeepEqual(va, vb) {
			fmt.Fprintf(w, "%s: %v vs %v\n", name, va, vb)
			differ = true
		}
	}
	param("seed", a.Seed, b.Seed)
	param("scale", a.Scale, b.Scale)
	param("fault model", modelName(a.FaultModel), modelName(b.FaultModel))
	param("version", a.Version, b.Version)

	keys := map[string]bool{}
	for k := range a.Results {
		keys[k] = true
	}
	for k := range b.Results {
		keys[k] = true
	}
	for k := range a.Quarantined {
		keys[k] = true
	}
	for k := range b.Quarantined {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		qa, qb := sortedInts(a.Quarantined[k]), sortedInts(b.Quarantined[k])
		if !slices.Equal(qa, qb) {
			fmt.Fprintf(w, "campaign %s quarantined: %v vs %v\n", k, qa, qb)
			differ = true
		}
		if diffCampaign(k, a.Results[k], b.Results[k], qa, qb, w) {
			differ = true
		}
	}
	return differ
}

func modelName(m string) string {
	if m == "" {
		return "bitflip"
	}
	return m
}

func sortedInts(v []int) []int {
	v = slices.Clone(v)
	slices.Sort(v)
	return v
}

// byOrdinal maps a campaign's results to their target ordinals: the
// slice index plus the quarantined ordinals before it.
func byOrdinal(rs []inject.Result, quarantined []int) map[int]*inject.Result {
	m := make(map[int]*inject.Result, len(rs))
	q := 0
	for i := range rs {
		ord := i + q
		for q < len(quarantined) && quarantined[q] <= ord {
			q++
			ord++
		}
		m[ord] = &rs[i]
	}
	return m
}

// diffCampaign prints the first ordinal at which campaign k's results
// differ, and reports whether there is one.
func diffCampaign(k string, ra, rb []inject.Result, qa, qb []int, w io.Writer) bool {
	ma, mb := byOrdinal(ra, qa), byOrdinal(rb, qb)
	last := -1
	for ord := range ma {
		last = max(last, ord)
	}
	for ord := range mb {
		last = max(last, ord)
	}
	for ord := 0; ord <= last; ord++ {
		xa, xb := ma[ord], mb[ord]
		if xa != nil && xb != nil && reflect.DeepEqual(*xa, *xb) {
			continue
		}
		if xa == nil && xb == nil {
			continue // quarantined (or missing) in both
		}
		fmt.Fprintf(w, "campaign %s: first difference at target ordinal %d\n", k, ord)
		switch {
		case xa == nil:
			fmt.Fprintf(w, "  target: %s\n  only in the second set\n", xb.Target.Describe())
		case xb == nil:
			fmt.Fprintf(w, "  target: %s\n  only in the first set\n", xa.Target.Describe())
		default:
			fmt.Fprintf(w, "  target: %s\n", xa.Target.Describe())
			diffFields("", reflect.ValueOf(*xa), reflect.ValueOf(*xb), w)
		}
		return true
	}
	return false
}

// diffFields prints each leaf field of two values of one struct type
// that differs, with both values.
func diffFields(path string, a, b reflect.Value, w io.Writer) {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			diffFields(join(path, a.Type().Field(i).Name), a.Field(i), b.Field(i), w)
		}
		return
	case reflect.Pointer:
		if !a.IsNil() && !b.IsNil() {
			diffFields(path, a.Elem(), b.Elem(), w)
			return
		}
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		fmt.Fprintf(w, "  %s: %s vs %s\n", path, show(a), show(b))
	}
}

func join(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// show formats a field value: addresses in hex, strings quoted, byte
// strings as hex bytes, a nil pointer as <nil>.
func show(v reflect.Value) string {
	switch {
	case v.Kind() == reflect.Pointer && v.IsNil():
		return "<nil>"
	case v.Kind() == reflect.Pointer:
		return fmt.Sprintf("%+v", v.Elem().Interface())
	case v.Kind() == reflect.Uint32:
		return fmt.Sprintf("%#x", v.Uint())
	case v.Kind() == reflect.String:
		return fmt.Sprintf("%q", v.String())
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		return fmt.Sprintf("[% x]", v.Bytes())
	}
	return fmt.Sprintf("%v", v.Interface())
}
