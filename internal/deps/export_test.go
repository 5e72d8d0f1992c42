package deps

// CrossValidate lets the external tests, which may import bench, check a
// program's dependences against its trace.
var CrossValidate = crossValidate
