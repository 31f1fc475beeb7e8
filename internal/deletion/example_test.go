package deletion_test

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/deletion"
	"repro/internal/provenance"
	"repro/internal/relation"
)

func exampleDB() *relation.Database {
	db := relation.NewDatabase()
	ug := relation.New("UserGroup", relation.NewSchema("user", "group"))
	ug.InsertStrings("john", "staff")
	ug.InsertStrings("john", "admin")
	ug.InsertStrings("mary", "admin")
	db.MustAdd(ug)
	gf := relation.New("GroupFile", relation.NewSchema("group", "file"))
	gf.InsertStrings("staff", "f1")
	gf.InsertStrings("admin", "f1")
	gf.InsertStrings("admin", "f2")
	db.MustAdd(gf)
	return db
}

// Deleting (john, f2) from Π_{user,file}(UserGroup ⋈ GroupFile): the
// exact solver finds the side-effect-free choice — drop john's admin
// membership; (john, f1) survives via staff.
func ExampleViewExactGroupBasis() {
	db := exampleDB()
	q := algebra.Pi([]relation.Attribute{"user", "file"},
		algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
	basis, _ := provenance.Compute(q, db)
	res, _ := deletion.ViewExactGroupBasis(basis, []relation.Tuple{relation.StringTuple("john", "f2")}, deletion.ViewOptions{})
	fmt.Println("delete:", res.T[0])
	fmt.Println("side-effect-free:", res.SideEffectFree())
	// Output:
	// delete: UserGroup(john, admin)
	// side-effect-free: true
}

// (john, f1) has two independent derivations, so the minimum source
// deletion needs two tuples — one per witness.
func ExampleSourceExactGroupBasis() {
	db := exampleDB()
	q := algebra.Pi([]relation.Attribute{"user", "file"},
		algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
	basis, _ := provenance.Compute(q, db)
	res, _ := deletion.SourceExactGroupBasis(basis, []relation.Tuple{relation.StringTuple("john", "f1")})
	fmt.Println("witnesses:", res.Witnesses)
	fmt.Println("deletions:", len(res.T))
	// Output:
	// witnesses: 2
	// deletions: 2
}
