package shard

import (
	"reflect"
	"strconv"
	"testing"

	"climber"
)

// sumStats must fold every field of climber.Stats. Each field is set to a
// value of its own, and the fold of that one shard must give every value back:
// a field added to the struct and forgotten in the fold comes out zero —
// the silent drop from merged answers this guards against. A field of a kind
// the test cannot fill fails it, so whoever adds one decides how it folds.
func TestSumStatsFoldsEveryField(t *testing.T) {
	var s climber.Stats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("field-" + strconv.Itoa(i))
		default:
			t.Fatalf("climber.Stats.%s has kind %s: teach this test and sumStats about it", sv.Type().Field(i).Name, f.Kind())
		}
	}
	out := reflect.ValueOf(sumStats([]climber.Stats{s}))
	for i := 0; i < sv.NumField(); i++ {
		if got, want := out.Field(i).Interface(), sv.Field(i).Interface(); got != want {
			t.Errorf("sumStats drops climber.Stats.%s: one shard's %v folds to %v", sv.Type().Field(i).Name, want, got)
		}
	}
}
