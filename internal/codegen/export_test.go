package codegen

// MaxFuncNodes is the cap on a generated function's go/ast body nodes.
const MaxFuncNodes = maxFuncNodes
